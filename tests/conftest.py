"""Shared fixtures: one chart per parameter set, built once per session."""

import numpy as np
import pytest

from phasemix import (
    PotentialParams,
    build_chart,
    chart_range_for_support,
    make_initial_data,
)

EPS = 0.1
C_S = 0.5
ALPHA = 0.5
M = 1


@pytest.fixture(scope="session")
def params():
    return PotentialParams(epsilon=EPS)


@pytest.fixture(scope="session")
def harmonic():
    return PotentialParams(epsilon=0.0)


@pytest.fixture(scope="session")
def chart(params):
    lo, hi = chart_range_for_support(C_S)
    return build_chart(params, lo, hi, n_k=64, n_chi=512)


@pytest.fixture(scope="session")
def harmonic_chart(harmonic):
    lo, hi = chart_range_for_support(C_S)
    return build_chart(harmonic, lo, hi, n_k=64, n_chi=512)


@pytest.fixture(scope="session")
def f0(chart):
    return make_initial_data(C_S, ALPHA, M, chart)


@pytest.fixture(scope="session")
def harmonic_f0(harmonic_chart):
    return make_initial_data(C_S, ALPHA, M, harmonic_chart)


@pytest.fixture(scope="session")
def support_sample(params, chart):
    """Deterministic (x, v) sample spread over the support annulus."""
    rng = np.random.default_rng(42)
    h = rng.uniform(C_S * 1.1, 0.9 / C_S, 40)
    chi = rng.uniform(0.0, 2.0 * np.pi, 40)
    from phasemix import from_angle_energy

    x, v = from_angle_energy(params, chi, h)
    return x, v
