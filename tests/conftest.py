"""Shared fixtures: the default experiment and its harmonic control, built once per session.

The potential, chart and initial data come from the same
:class:`~phasemix.experiment.Experiment` the CLI builds, so the tests
and the commands share one chart per parameter set.
"""

import numpy as np
import pytest

from phasemix import from_angle_energy
from phasemix.experiment import Experiment, ExperimentConfig


@pytest.fixture(scope="session")
def experiment():
    """The default config: eps = 0.1, c_s = 0.5, alpha = 0.5, m = 1."""
    return Experiment(ExperimentConfig())


@pytest.fixture(scope="session")
def harmonic_experiment():
    """The default config at eps = 0, the no-mixing control."""
    return Experiment(ExperimentConfig(epsilon=0.0))


@pytest.fixture(scope="session")
def params(experiment):
    return experiment.params


@pytest.fixture(scope="session")
def harmonic(harmonic_experiment):
    return harmonic_experiment.params


@pytest.fixture(scope="session")
def chart(experiment):
    return experiment.chart


@pytest.fixture(scope="session")
def harmonic_chart(harmonic_experiment):
    return harmonic_experiment.chart


@pytest.fixture(scope="session")
def f0(experiment):
    return experiment.f0


@pytest.fixture(scope="session")
def harmonic_f0(harmonic_experiment):
    return harmonic_experiment.f0


@pytest.fixture(scope="session")
def support_sample(experiment):
    """Deterministic (x, v) sample spread over the support annulus."""
    c_s = experiment.cfg.c_s
    rng = np.random.default_rng(42)
    h = rng.uniform(c_s * 1.1, 0.9 / c_s, 40)
    chi = rng.uniform(0.0, 2.0 * np.pi, 40)
    return from_angle_energy(experiment.params, chi, h)
