"""Shared fixtures: the default experiment and its harmonic control, built once per session.

The potential, chart and initial data come from the same
:class:`~phasemix.experiment.Experiment` the CLI builds, so the tests
and the commands share one chart per parameter set.  The probe of the
commuted fields, which no subcommand runs, lives here too.
"""

import functools

import numpy as np
import pytest

from phasemix import compute_c_prime, from_action_angle, solution_bar
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
def wide_experiment():
    """A chart of 2,242 modes: eps = 100, c_s = 0.02, n_k = 4, n_chi = 262144."""
    return Experiment(ExperimentConfig(epsilon=100.0, c_s=0.02, n_k=4, n_chi=262144))


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
    q = rng.uniform(0.0, 2.0 * np.pi, 40)
    return from_action_angle(experiment.params, q, h)


@pytest.fixture(scope="session")
def commuted_sups():
    """The probe of the commuting field Y = t c'(K) d_Q - d_K.

    ``probe(f0, t, dq, dk)`` returns sup |f|, |Yf|, |Y^2 f|, |d_Q f| and
    |d_K f| of fbar(t) on 96 x 81 (Q, K) samples, by centred differences of
    steps (dq, dk), Y^2 nesting the same stencil.  c' is the closed form
    ``compute_c_prime``.  It asserts that
    the sups of Yf and Y^2 f agree to 1 % at half steps.
    """
    def probe(f0, t, dq=1e-3, dk=1e-3):
        qq, kk = np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False),
                             np.linspace(f0.h_min, f0.h_max, 81), indexing="ij")
        f = functools.partial(solution_bar, f0, t)
        c_prime = functools.partial(compute_c_prime, f0.chart.params)

        def sups(hq, hk):
            def d_q(g):
                return lambda q, k: (g(q + hq, k) - g(q - hq, k)) / (2.0 * hq)

            def d_k(g):
                return lambda q, k: (g(q, k + hk) - g(q, k - hk)) / (2.0 * hk)

            def y(g):
                return lambda q, k: t * c_prime(k) * d_q(g)(q, k) - d_k(g)(q, k)

            return [float(np.max(np.abs(g(qq, kk)))) for g in (f, y(f), y(y(f)), d_q(f), d_k(f))]

        base, fine = sups(dq, dk), sups(dq / 2.0, dk / 2.0)
        for coarse, halved in zip(base[1:3], fine[1:3]):
            assert abs(coarse - halved) <= 0.01 * abs(halved), f"probe not converged at ({dq}, {dk})"
        return base

    return probe
