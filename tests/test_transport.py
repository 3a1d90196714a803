"""Initial-data family and the two exact solution routes."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from phasemix import (
    ChartRangeError,
    InitialData,
    build_chart,
    evaluate_f_actionangle,
    evaluate_f_characteristic,
    from_action_angle,
    hamiltonian,
    solution_bar,
    to_angle_energy,
)
from phasemix.moments import MomentCalculator, gauss_legendre
from phasemix.transport import pull_back


def test_bump_support(f0):
    assert f0.bump(f0.h_min) == 0.0
    assert f0.bump(f0.h_max) == 0.0
    assert f0.bump(0.1) == 0.0 and f0.bump(5.0) == 0.0
    mid = 0.5 * (f0.h_min + f0.h_max)
    npt.assert_allclose(f0.bump(mid), np.exp(-1.0), rtol=1e-14)


def test_bump_smooth_positive_inside(f0):
    h = np.linspace(f0.h_min + 1e-3, f0.h_max - 1e-3, 101)
    b = f0.bump(h)
    assert np.all(b > 0) and np.all(b <= np.exp(-1.0))


def test_value_bar_modulation(f0):
    mid = 0.5 * (f0.h_min + f0.h_max)
    base = f0.bump(mid)
    npt.assert_allclose(f0.value_bar(np.pi / 2.0, mid), base * 1.5, rtol=1e-13)
    npt.assert_allclose(f0.value_bar(-np.pi / 2.0, mid), base * 0.5, rtol=1e-13)


def test_initial_value_nonnegative(f0, support_sample):
    x, v = support_sample
    assert np.all(evaluate_f_actionangle(f0, 0.0, x, v) >= 0.0)


def test_value_vanishes_off_annulus(f0):
    # Inside the hole and outside the outer edge.
    assert evaluate_f_actionangle(f0, 0.0, 0.1, 0.0) == 0.0
    assert evaluate_f_actionangle(f0, 0.0, 3.0, 3.0) == 0.0


def test_routes_agree_at_t0(f0, support_sample):
    x, v = support_sample
    fa = evaluate_f_actionangle(f0, 0.0, x, v)
    fc = evaluate_f_characteristic(f0, 0.0, x, v)
    npt.assert_allclose(fa, fc, atol=1e-12)


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_cross_solver_equivalence(f0, support_sample, t):
    x, v = support_sample
    fa = evaluate_f_actionangle(f0, t, x, v)
    fc = evaluate_f_characteristic(f0, t, x, v)
    npt.assert_allclose(fa, fc, atol=1e-6)


def test_solution_constant_along_characteristics(params, f0):
    from phasemix import flow_map

    x0, v0 = 1.0, 0.5
    t = 17.0
    xt, vt = flow_map(params, x0, v0, t)
    before = evaluate_f_actionangle(f0, 0.0, x0, v0)
    after = evaluate_f_actionangle(f0, t, xt, vt)
    npt.assert_allclose(after, before, atol=1e-8)


def test_harmonic_solution_is_periodic(harmonic_f0):
    x = np.linspace(-1.5, 1.5, 11)
    v = 0.7
    f1 = evaluate_f_actionangle(harmonic_f0, 3.0, x, v)
    f2 = evaluate_f_actionangle(harmonic_f0, 3.0 + 2.0 * np.pi, x, v)
    npt.assert_allclose(f1, f2, atol=1e-12)


def test_solution_bar_translation(chart, f0):
    q = np.linspace(0.0, 2.0 * np.pi, 17)
    k = 1.1
    shifted = solution_bar(f0, 5.0, q, k)
    direct = f0.value_bar(q + chart.c_of_k(k) * 5.0, k)
    npt.assert_allclose(shifted, direct, rtol=1e-14)


def test_make_initial_data_validation(params, chart, f0):
    with pytest.raises(ValueError):
        InitialData(1.5, 0.5, 1, chart)
    with pytest.raises(ValueError):
        InitialData(0.5, 1.0, 1, chart)
    with pytest.raises(ValueError):
        InitialData(0.5, 0.5, 0, chart)
    # Chart too narrow for the annulus, also when replacing a field.
    narrow = build_chart(params, 0.9, 1.2, n_k=8, n_chi=64)
    with pytest.raises(ValueError):
        InitialData(0.5, 0.5, 1, narrow)
    with pytest.raises(ValueError):
        dataclasses.replace(f0, chart=narrow)


def test_initial_data_takes_its_potential_from_the_chart(harmonic, chart, f0):
    # The data cannot be paired with a potential other than its chart's.
    assert f0.params is chart.params
    with pytest.raises(TypeError):
        InitialData(0.5, 0.5, 1, harmonic, chart)
    with pytest.raises(TypeError):
        dataclasses.replace(f0, params=harmonic)


def test_annulus_point_outside_chart_raises(params, chart, f0):
    # A data family whose annulus exceeds the chart range must refuse to
    # be built, and a point beyond the chart to be charted, rather than
    # extrapolate silently.
    with pytest.raises(ValueError):
        dataclasses.replace(f0, c_s=0.4)
    x_bad = 0.0
    v_bad = np.sqrt(2.0 * 2.3)  # h = 2.3 > chart.k_max = 2.1
    assert hamiltonian(params, x_bad, v_bad) < 1.0 / 0.4
    with pytest.raises(ChartRangeError):
        chart.q_from_chi(*to_angle_energy(params, x_bad, v_bad))
    # The closed-form inverse needs no chart: only an energy K <= 0 has no orbit.
    for k_bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            from_action_angle(params, 0.0, k_bad)


@pytest.mark.parametrize("name, grid, n_quad", [
    ("experiment", 201, 128),  # the default node set: 5,441 support nodes
    ("harmonic_experiment", 201, 129),  # no modes; an odd rule puts v = 0 on x = 0
    ("wide_experiment", 21, 64),  # 2,242 modes on a few hundred nodes
])
def test_pull_back_is_the_pointwise_chart(request, name, grid, n_quad):
    # The node set's pull-back evaluates Phi per grid row and H per node on
    # the broadcast grid; it equals the chart applied to the gathered
    # support nodes one by one, bit for bit.
    exp = request.getfixturevalue(name)
    calc = MomentCalculator(exp.f0, grid, n_quad=n_quad)
    x = calc.abs_x[:, None]
    v = calc.v_max[:, None] * gauss_legendre(n_quad)[0][n_quad // 2:]
    inside, q, _, k = pull_back(exp.f0, x, v)
    assert inside.sum() == calc.support_nodes > 0
    chi, h = to_angle_energy(exp.params, np.broadcast_to(x, v.shape)[inside], v[inside])
    assert k.tobytes() == h.tobytes()
    assert q.tobytes() == exp.chart.q_from_chi(chi, h)[0].tobytes()


def test_pull_back_of_an_empty_support(f0):
    # The fixed point and points off the annulus never reach the chart.
    inside, q, _, k = pull_back(f0, np.array([[0.0], [0.1], [3.0]]), np.array([[0.0, 0.1], [0.0, 0.2], [3.0, 0.0]]))
    assert inside.shape == (3, 2) and not inside.any()
    assert q.shape == k.shape == (0,)
