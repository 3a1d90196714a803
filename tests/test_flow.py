"""Hamiltonian flow: the Taylor integrator against DOP853, reversibility, and the
closed-form orbit period 2 pi / c against DOP853's."""

import numpy as np
import numpy.testing as npt
import pytest

from phasemix import (
    FlowError,
    exact_frequency,
    flow_map,
    from_action_angle,
)
from phasemix import flow

TOL = 1e-12


def _period(params, h):
    """The orbit period 2 pi / c(h), c in closed form."""
    return 2.0 * np.pi / float(exact_frequency(params, h)[0])


def test_harmonic_rotation(harmonic):
    # For eps = 0 the flow is a clockwise rotation of (x, v).
    t = 1.3
    x0, v0 = 0.7, -0.4
    x, v = flow_map(harmonic, x0, v0, t, tolerance=TOL)
    npt.assert_allclose(x, x0 * np.cos(t) + v0 * np.sin(t), atol=1e-10)
    npt.assert_allclose(v, -x0 * np.sin(t) + v0 * np.cos(t), atol=1e-10)


def test_reversibility(params):
    x0, v0 = 1.1, 0.4
    x, v = flow_map(params, x0, v0, 7.0, tolerance=TOL)
    xb, vb = flow_map(params, x, v, -7.0, tolerance=TOL)
    npt.assert_allclose([xb, vb], [x0, v0], atol=1e-8)


def _dop853(params, x, v, t):
    from scipy.integrate import solve_ivp

    n = x.size

    def rhs(_, y):
        x = y[:n]
        return np.concatenate([y[n:], -x - 2.0 * params.epsilon * x**3])

    sol = solve_ivp(rhs, (0.0, t), np.concatenate([x, v]), method="DOP853",
                    rtol=1e-12, atol=1e-15)
    assert sol.success
    return sol.y[:n, -1], sol.y[n:, -1]


@pytest.mark.parametrize("t", [1.0, -1.0, 10.0, -10.0])
def test_flow_matches_dop853(params, t):
    # SciPy's DOP853 is the independent oracle for the Taylor integrator,
    # on 30 seeded points of the support annulus, as the CLI's checks use.
    rng = np.random.default_rng(0)
    x, v = from_action_angle(params, rng.uniform(-np.pi, np.pi, 30), rng.uniform(0.5, 2.0, 30))
    xt, vt = flow_map(params, x, v, t)
    xd, vd = _dop853(params, x, v, t)
    npt.assert_allclose(xt, xd, rtol=0, atol=1e-10)
    npt.assert_allclose(vt, vd, rtol=0, atol=1e-10)


def test_flow_step_cap(params, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    with pytest.raises(FlowError):
        flow_map(params, 1.0, 0.0, 100.0)


def test_flow_preserves_shape(params):
    x = np.linspace(0.1, 1.0, 6).reshape(2, 3)
    v = np.zeros_like(x)
    xt, vt = flow_map(params, x, v, 0.5, tolerance=TOL)
    assert xt.shape == (2, 3) and vt.shape == (2, 3)
    xs, vs = flow_map(params, 0.5, 0.5, 0.5, tolerance=TOL)
    assert np.isscalar(xs) or np.ndim(xs) == 0


def test_harmonic_period(harmonic):
    for h in (0.25, 1.0, 4.0):
        npt.assert_allclose(_period(harmonic, h), 2.0 * np.pi, rtol=1e-10)


def test_anharmonic_period_shrinks(params):
    # Stiffer-than-harmonic potential: larger orbits are faster.
    t1 = _period(params, 0.5)
    t2 = _period(params, 2.0)
    assert t2 < t1 < 2.0 * np.pi


def test_period_frozen_value(params):
    # Independently computed orbital period at eps = 0.1, h = 1.
    npt.assert_allclose(_period(params, 1.0), 5.610769032243066, rtol=1e-9)


def test_flow_tolerance_validation(params):
    with pytest.raises(ValueError):
        flow_map(params, 0.5, 0.5, 1.0, tolerance=-1.0)
    with pytest.raises(ValueError):
        flow_map(params, 0.5, 0.5, 1.0, tolerance=1e-2)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_flow_rejects_a_non_finite_time(params, t):
    # NaN would return the initial state unmoved, and inf would run out the
    # step cap before failing.
    with pytest.raises(ValueError, match="t must be finite"):
        flow_map(params, 1.0, 0.3, t)


def _two_series(eps, x, v):
    """The Taylor coefficients of x and v by the first-order pair
    x_{k+1} = v_k / (k + 1), v_{k+1} = -(x_k + 2 eps (x**3)_k) / (k + 1)."""
    order = flow.ORDER
    xs = np.empty((order + 1,) + x.shape)
    vs = np.empty_like(xs)
    sq = np.empty_like(xs)
    xs[0], vs[0] = x, v
    for k in range(order):
        back = xs[k::-1]
        sq[k] = np.vecdot(xs[: k + 1], back, axis=0)
        cube = np.vecdot(sq[: k + 1], back, axis=0)
        xs[k + 1] = vs[k] / (k + 1)
        vs[k + 1] = -(xs[k] + 2.0 * eps * cube) / (k + 1)
    return xs, vs


@pytest.mark.parametrize("eps", [0.0, 0.1, 30.0, 100.0])
def test_one_series_matches_the_position_velocity_pair(eps):
    # The position series alone, with v_k = (k + 1) x_{k+1}, carries the
    # first-order pair's coefficients to rounding, through x_21 = v_20 / 21.
    rng = np.random.default_rng(1)
    x, v = rng.uniform(-2.0, 2.0, (2, 50))
    xs = flow._series(eps, x, v)
    ref_x, ref_v = _two_series(eps, x, v)
    rows = np.arange(1, flow.ORDER + 2)[:, None]
    # Each row within 1e-15 of its largest entry (4.3e-16 measured).
    for got, ref in ((xs[:-1], ref_x), (rows * xs[1:], ref_v)):
        assert np.all(np.max(np.abs(got - ref), axis=1) <= 1e-15 * np.max(np.abs(ref), axis=1))


@pytest.mark.parametrize("h", [0.25, 1.0, 4.0])
def test_period_matches_dop853_events(params, h):
    # The closed form against the flow: the period as DOP853 event
    # detection measures it, the time between the first two downward
    # crossings of v = 0 from (0, sqrt(2h)).
    from scipy.integrate import solve_ivp

    eps = params.epsilon

    def rhs(_, y):
        return [y[1], -(y[0] + 2.0 * eps * y[0] ** 3)]

    def turning(_, y):
        return y[1]

    turning.direction = -1
    sol = solve_ivp(rhs, (0.0, 1.6 * 2.0 * np.pi), [0.0, np.sqrt(2.0 * h)],
                    method="DOP853", rtol=1e-12, atol=1e-14, events=turning)
    crossings = sol.t_events[0]
    npt.assert_allclose(_period(params, h), crossings[1] - crossings[0], rtol=0, atol=1e-12)


def test_period_rejects_nonpositive_energy(params):
    for h in (0.0, -1.0):
        with pytest.raises(ValueError):
            exact_frequency(params, h)
