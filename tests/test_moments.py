"""Velocity moments, potential reconstruction, and the two phi_t routes."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from phasemix import (
    ChartRangeError,
    MomentCalculator,
    build_chart,
    cumulative_from_zero,
    evaluate_f_actionangle,
    spatial_grid,
)
from phasemix import moments
from phasemix.experiment import Experiment, ExperimentConfig
from phasemix.potential import invert_phi, phi


@pytest.fixture(scope="module")
def grid(params):
    return spatial_grid(params, 0.5, 201)


@pytest.fixture(scope="module")
def calc(f0, grid):
    return MomentCalculator(f0, grid, n_quad=128)


@pytest.fixture(scope="module")
def fine_calc(params, f0):
    return MomentCalculator(f0, spatial_grid(params, 0.5, 801), n_quad=128)


def test_spatial_grid_shape(params):
    g = spatial_grid(params, 0.5, 201)
    assert g.size == 201
    npt.assert_allclose(g[100], 0.0, atol=1e-15)
    npt.assert_allclose(g[-1], invert_phi(params, 2.0), rtol=1e-14)
    npt.assert_allclose(g, -g[::-1], atol=1e-15)
    # An even count has no node at x = 0, and the grid keeps the count asked for.
    with pytest.raises(ValueError):
        spatial_grid(params, 0.5, 200)


def test_cumulative_from_zero_polynomial():
    x = np.linspace(-2.0, 2.0, 401)
    # int_0^x 3 y**2 dy = x**3, exact for Simpson.
    npt.assert_allclose(cumulative_from_zero(3.0 * x**2, x), x**3, atol=1e-13)


def test_cumulative_from_zero_smooth():
    x = np.linspace(-1.0, 1.0, 801)
    npt.assert_allclose(
        cumulative_from_zero(np.cos(x), x), np.sin(x), atol=1e-11
    )


@pytest.mark.parametrize("n", [3, 5, 201, 801])
def test_cumulative_from_zero_matches_scipy(params, n):
    # Both halves of the grid, each integrated outward from x = 0, equal
    # SciPy's cumulative_simpson bit for bit.
    from scipy.integrate import cumulative_simpson

    x = spatial_grid(params, 0.5, n)
    i0 = x.size // 2
    y = np.random.default_rng(n).standard_normal((3, x.size))
    right = cumulative_simpson(y[:, i0:], x=x[i0:], initial=0.0)
    left = cumulative_simpson(y[:, i0::-1], x=-x[i0::-1], initial=0.0)
    got = cumulative_from_zero(y, x)
    assert np.array_equal(got[:, i0:], right)
    assert np.array_equal(got[:, : i0 + 1], -left[:, ::-1])


def test_cumulative_requires_centered_grid():
    x = np.linspace(0.1, 1.0, 11)
    with pytest.raises(ValueError):
        cumulative_from_zero(np.ones_like(x), x)


def test_density_even_at_t0(calc, grid):
    # The initial data is even in x (it depends on x through Phi only
    # after angle averaging at +-v pairs), so rho(0, .) is even.
    rho = calc.density(0.0)
    npt.assert_allclose(rho, rho[::-1], atol=1e-12)
    assert np.all(rho >= 0.0)


def test_density_vanishes_outside_support(f0, grid):
    edge = MomentCalculator(f0, np.array([grid[-1]]), n_quad=128)
    assert abs(edge.density(0.0)[0]) < 1e-14


def test_mass_conservation(fine_calc):
    from scipy.integrate import simpson

    fine = fine_calc.x
    m0 = simpson(fine_calc.density(0.0), x=fine)
    for t in (1.0, 10.0, 100.0):
        mt = simpson(fine_calc.density(t), x=fine)
        npt.assert_allclose(mt, m0, rtol=1e-8)


def test_mass_frozen_value(fine_calc):
    # Mass of the default data, frozen from converged quadrature and
    # cross-checked against the action-angle integral with the 1/c
    # Jacobian factor.
    from scipy.integrate import simpson

    fine = fine_calc.x
    m = simpson(fine_calc.density(0.0), x=fine)
    npt.assert_allclose(m, 1.8326594895451827, rtol=1e-7)


def test_current_odd_at_quarter_turn(calc, grid):
    # j is an odd moment; at t = 0 the sin(Q) modulation makes it odd
    # under x -> -x up to the angle asymmetry; just pin j(0) = 0 is not
    # generally true, so check the tail instead: j -> 0 at the support
    # edge.
    j = calc.current(0.0)
    assert abs(j[0]) < 1e-14 and abs(j[-1]) < 1e-14


def test_phi_pinned_at_origin(calc, grid):
    p = calc.potential_of(calc.density(0.0))
    mid = grid.size // 2
    npt.assert_allclose(p[mid], 0.0, atol=1e-15)
    # -phi'' = rho: check curvature sign near the origin where rho > 0.
    assert p[mid + 1] + p[mid - 1] - 2.0 * p[mid] < 0.0


def test_phi_t_routes_converge(params, f0):
    calc = MomentCalculator(f0, spatial_grid(params, 0.5, 801), n_quad=512)
    t = 5.0
    ref = calc.phi_t_reconstruct(t)
    err = [
        float(np.max(np.abs(calc.phi_t_fd(t, dt) - ref)))
        for dt in (2e-3, 1e-3)
    ]
    assert 3.5 <= err[0] / err[1] <= 4.5


def test_series_assembles_everything(calc, grid):
    # evolve's columns over a schedule: one row per time of each moment.
    times = np.array([0.0, 1.0])
    rho, j = calc.density(times), calc.current(times)
    assert rho.shape == j.shape == calc.potential_of(rho).shape == (2, grid.size)
    npt.assert_allclose(rho[0], calc.density(0.0), atol=1e-14)
    npt.assert_allclose(calc.phi_t_of(j)[1], calc.phi_t_reconstruct(1.0), atol=1e-14)


def test_n_quad_floor(f0, grid):
    with pytest.raises(ValueError):
        MomentCalculator(f0, grid, n_quad=32)


@pytest.mark.parametrize("t", [0.0, 7.3, 150.0])
def test_node_set_matches_pointwise_route(params, f0, grid, t):
    # The cached pull-back of the v >= 0 half must reproduce evaluating
    # the solution afresh at every velocity node and summing with the
    # Gauss weights, for an even node count and for odd ones, which have
    # a centre node v = 0.  The two routes round differently (mirror
    # pairs folded by a trig identity against one node at a time), so
    # the bound is relative to the rounding scale of each sum, the
    # quadrature of |f| and of |f v|.
    v_max = np.sqrt(np.clip(2.0 * (f0.h_max - phi(params, grid)), 0.0, None))
    for n_quad in (128, 65, 129):
        calc = MomentCalculator(f0, grid, n_quad=n_quad)
        nodes, w = np.polynomial.legendre.leggauss(n_quad)
        v = v_max[:, None] * nodes
        f = evaluate_f_actionangle(f0, t, grid[:, None], v)
        rho, j = v_max * (f @ w), v_max * ((f * v) @ w)
        rho_scale = v_max * (np.abs(f) @ w)
        j_scale = v_max * (np.abs(f * v) @ w)
        assert np.all(np.abs(calc.density(t) - rho) <= 1e-14 * rho_scale), n_quad
        assert np.all(np.abs(calc.current(t) - j) <= 1e-14 * j_scale), n_quad
        batch = calc.density(np.array([t, t]))
        assert np.all(np.abs(batch - rho) <= 1e-14 * rho_scale), n_quad


def _order(calc, times):
    """The Jacobi-Anger order of one call over ``times``."""
    return moments._order(calc._h * np.max(np.abs(times)), times.size + 1)


def _long_double_current(calc, times):
    """The current's row sums with long-double phases, trig and sums."""
    rate = calc._rate.astype(np.longdouble)
    out = np.zeros((times.size, calc.x.size), dtype=np.longdouble)
    for i, t in enumerate(times):
        vals = calc._j_amp.astype(np.longdouble) * np.cos(rate * np.longdouble(t))
        out[i, calc._rows] = np.add.reduceat(vals, calc._starts)
    return out


def _sup_phi_t_error(calc, times):
    """Largest relative error of sup_x |phi_t| at any time against long-double sums."""
    ref = calc.phi_t_of(_long_double_current(calc, times).astype(float))
    sup = np.max(np.abs(calc.phi_t_of(calc.current(times))), axis=-1)
    sup_ref = np.max(np.abs(ref), axis=-1)
    return float(np.max(np.abs(sup - sup_ref) / sup_ref))


def test_fewer_times_than_order_take_exact_trig(calc):
    # Fewer times than the Jacobi-Anger order: the call is, bit for bit,
    # one call per time.
    times = np.array([3.0, 17.5, 42.0, 99.9, 150.0])
    assert times.size < _order(calc, times)
    npt.assert_array_equal(calc.density(times), [calc.density(t) for t in times])
    npt.assert_array_equal(calc.current(times), [calc.current(t) for t in times])


@pytest.fixture(scope="module")
def default_scan(experiment):
    """The default decay scan's node set and times."""
    return experiment.node_set, experiment.times


def test_default_scan_stays_near_exact_trig(default_scan):
    # Row by row, the Jacobi-Anger sum stays within 1e-13 of the rounding
    # scale of its sum, the quadrature of |amplitude|; the phase rounding
    # eps * m c t alone is about 2.5e-14 at t = 200.
    calc, times = default_scan
    assert _order(calc, times) < times.size
    for name, amp in (("density", calc._rho_amp), ("current", calc._j_amp)):
        moment = getattr(calc, name)
        exact = np.array([moment(t) for t in times])
        bound = 1e-13 * calc._row_sums(np.abs(amp))
        assert np.all(np.abs(moment(times) - exact) <= bound), name


def test_harmonic_scan_is_one_term(harmonic_f0, grid):
    # At eps = 0 every node turns at the same rate: h = 0, one term.
    calc = MomentCalculator(harmonic_f0, grid, n_quad=128)
    times = np.linspace(0.0, 200.0, 41)
    assert calc._h == 0.0 and _order(calc, times) == 1
    bound = 1e-13 * calc._row_sums(np.abs(calc._j_amp))
    exact = np.array([calc.current(t) for t in times])
    assert np.all(np.abs(calc.current(times) - exact) <= bound)


def test_sup_phi_t_against_long_double(default_scan):
    # sup_x |phi_t| is about 1e-5 of the node amplitudes, so the rounding of
    # the node sums shows relative to it: exact trig errs by 2.6e-12.
    calc, times = default_scan
    assert _sup_phi_t_error(calc, times) <= 2e-13


def test_long_scan_sup_phi_t_against_long_double():
    # The last 128 times of a t_max = 1000 scan at 201 x 512 (order 121);
    # exact trig errs by 1.1e-9.
    exp = Experiment(ExperimentConfig(v_quad=512, t_max=1000.0, fit_window=(20.0, 1000.0)))
    calc, times = exp.node_set, exp.times[-128:]
    assert _order(calc, times) < times.size
    assert _sup_phi_t_error(calc, times) <= 1e-10


def test_node_set_rejects_chart_short_of_support(params, f0, grid):
    short = build_chart(params, 0.7, 1.5, n_k=8, n_chi=32)
    with pytest.raises(ChartRangeError):
        MomentCalculator(dataclasses.replace(f0, chart=short), grid, n_quad=64)
