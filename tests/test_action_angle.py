"""Angle-energy chart, orbital frequency, anisochronism, and the Q map."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from numpy.fft import rfft

from phasemix import (
    ChartError,
    ChartRangeError,
    PotentialParams,
    build_chart,
    chart_range_for_support,
    compute_c,
    exact_frequency,
    flow_map,
    from_action_angle,
    hamiltonian,
    invert_phi,
    phi,
    rate_a,
    to_angle_energy,
)
from phasemix import action_angle
from phasemix.action_angle import half_angle_sin_cos
from phasemix.experiment import Experiment, ExperimentConfig
from phasemix.moments import MomentCalculator, gauss_legendre
from phasemix.transport import pull_back


def _b_table(chart, k):
    """b_k(K) at the 1-D energies k, from SciPy's CubicSpline through the
    chart's sine table."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(chart.k_grid, chart.sine_coeffs, axis=0)(k)


def test_rate_harmonic_is_one(harmonic):
    chi = np.linspace(0.0, 2.0 * np.pi, 25)
    npt.assert_allclose(rate_a(harmonic, chi, 1.3), np.ones_like(chi), rtol=1e-14)


def test_rate_at_least_one(params):
    chi = np.linspace(0.0, 2.0 * np.pi, 64)
    h = np.linspace(0.25, 4.0, 9)[:, None]
    assert np.all(rate_a(params, chi, h) >= 1.0)


def test_half_angle_sin_cos_matches_libm():
    # Random angles up to 1e6 in size, and the angles where sin or cos is
    # 0 or +-1, including the signed zeros.
    rng = np.random.default_rng(29)
    special = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1.5 * np.pi]
    a = np.concatenate((special, rng.uniform(-10.0, 10.0, 50_000),
                        rng.uniform(-1e6, 1e6, 50_000)))
    half = 0.5 * a
    sin, cos = half_angle_sin_cos(half, half, np.empty(a.size))  # in place
    assert sin is half
    assert np.max(np.abs(sin - np.sin(a))) <= 4e-16
    assert np.max(np.abs(cos - np.cos(a))) <= 4e-16
    assert np.array_equal(np.signbit(sin[:2]), [False, True])
    assert np.array_equal(cos[:2], [1.0, 1.0])
    sin, cos = half_angle_sin_cos(np.array([np.nan, 1.0]))
    assert np.isnan(sin[0]) and np.isnan(cos[0]) and not np.isnan(sin[1] + cos[1])


def test_angle_energy_round_trip(params, support_sample):
    # Inverted by x = sign(cos chi) Phi^{-1}(h cos**2 chi), v = sqrt(2 h) sin chi.
    x, v = support_sample
    chi, h = to_angle_energy(params, x, v)
    xb = np.sign(np.cos(chi)) * invert_phi(params, h * np.cos(chi) ** 2)
    vb = np.sqrt(2.0 * h) * np.sin(chi)
    npt.assert_allclose(xb, x, atol=1e-12)
    npt.assert_allclose(vb, v, atol=1e-12)
    npt.assert_allclose(h, hamiltonian(params, x, v), rtol=1e-13)


def test_angle_quadrant_conventions(params):
    # chi = 0 at the right turning point, pi/2 on the positive-v axis.
    x_turn = 1.0
    h = hamiltonian(params, x_turn, 0.0)
    chi, _ = to_angle_energy(params, x_turn, 0.0)
    npt.assert_allclose(chi, 0.0, atol=1e-14)
    chi, _ = to_angle_energy(params, 0.0, np.sqrt(2.0 * h))
    npt.assert_allclose(chi, np.pi / 2.0, atol=1e-14)
    # On a grid with rows at x < 0, x = 0 and v = 0 and both signs of v, the
    # angle is the normalized pair's atan2(v / sqrt(2h), sign(x) sqrt(Phi / h))
    # to 2 ulp; the origin, where that pair is 0/0, reads 0 at h = 0.
    x, v = np.arange(-25, 26)[:, None] / 10.0, np.arange(-30, 31)[None, :] / 10.0
    chi, h = to_angle_energy(params, x, v)
    with np.errstate(invalid="ignore", divide="ignore"):
        pair = np.arctan2(v / np.sqrt(2.0 * h), np.sign(x) * np.sqrt(phi(params, x) / h))
    origin = (x == 0) & (v == 0)
    assert chi[origin] == 0.0 and h[origin] == 0.0 and np.isnan(pair[origin])
    assert np.all(np.abs(chi - pair)[~origin] <= 2 * np.spacing(np.abs(pair[~origin])))


def test_c_harmonic_is_one(harmonic):
    for h in (0.25, 1.0, 4.0):
        npt.assert_allclose(compute_c(harmonic, h), 1.0, rtol=1e-13)


def test_c_frozen_values(params):
    # Frozen from the quadrature at converged resolution; cross-checked
    # against the closed form below.
    npt.assert_allclose(compute_c(params, 0.5), 1.0661707018952897, rtol=1e-12)
    npt.assert_allclose(compute_c(params, 1.0), 1.1198438700778084, rtol=1e-12)
    npt.assert_allclose(compute_c(params, 2.0), 1.2055275837900095, rtol=1e-12)


def test_c_against_period_oracle(params):
    # 2 pi over the closed-form period 2 pi / c.
    for h in (0.25, 1.0, 4.0):
        period = 2.0 * np.pi / exact_frequency(params, h)[0]
        npt.assert_allclose(compute_c(params, h), 2.0 * np.pi / period, rtol=1e-8)


def _mp_frequency(eps, h):
    """c(h) = pi sqrt(s) / (2 K(k)) and its derivative, in 40-digit mpmath."""
    import mpmath

    with mpmath.workdps(40):
        eps = mpmath.mpf(eps)

        def c(h):
            s = mpmath.sqrt(1 + 8 * eps * h)
            return mpmath.pi * mpmath.sqrt(s) / (2 * mpmath.ellipk((s - 1) / (2 * s)))

        h = mpmath.mpf(h)
        return c(h), mpmath.diff(c, h)


@pytest.mark.parametrize("eps", [1e-12, 1e-6, 1e-3, 0.01, 0.1, 1.0, 10.0, 100.0])
def test_exact_frequency_against_mpmath(eps):
    # From the nearly harmonic to the strongly quartic orbit, over the
    # energies of every chart from c_s = 0.01 to 0.9.
    h = np.geomspace(0.0095, 52.5, 13)
    c, c_prime = exact_frequency(PotentialParams(eps), h)
    ref = [_mp_frequency(eps, float(hi)) for hi in h]
    assert np.max(np.abs([float(ci / r - 1) for ci, (r, _) in zip(c, ref)])) <= 1e-15
    assert np.max(np.abs([float(ci / r - 1) for ci, (_, r) in zip(c_prime, ref)])) <= 2e-15


def test_exact_frequency_is_one_and_zero_when_harmonic(harmonic):
    c, c_prime = exact_frequency(harmonic, np.geomspace(1e-6, 1e3, 19))
    assert np.all(c == 1.0) and np.all(c_prime == 0.0)


def _mp_orbit(eps, k, q):
    """(x, v) = (A cn(u), A sqrt(s) sn(u) dn(u)) at u = 2 K(m) Q / pi, with
    m = (s - 1) / (2 s) and A**2 = 4 K / (s + 1), in 40-digit mpmath."""
    import mpmath

    with mpmath.workdps(40):
        eps, k = mpmath.mpf(eps), mpmath.mpf(k)
        s = mpmath.sqrt(1 + 8 * eps * k)
        m = (s - 1) / (2 * s)
        amp = mpmath.sqrt(4 * k / (s + 1))
        u = 2 * mpmath.ellipk(m) * mpmath.mpf(q) / mpmath.pi
        sn, cn, dn = (mpmath.ellipfun(name, u, m=m) for name in ("sn", "cn", "dn"))
        return float(amp * cn), float(amp * mpmath.sqrt(s) * sn * dn)


@pytest.mark.parametrize("eps", [0.0, 1e-6, 0.1, 1.0, 100.0])
def test_from_action_angle_against_mpmath(eps):
    # Energies over the annuli of c_s = 0.02 to 0.9, and angles over several
    # periods, the turning points and axes included.  Relative to sqrt(2K),
    # which bounds |x| and |v|, the error is at most 1.7e-14 (eps = 100,
    # Q = -50.3): Landen's phi_4 = 16 Q holds the rounding of an angle
    # near 800.
    k = np.geomspace(0.02, 50.0, 5)
    q = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 0.7, -2.3, 4.0, 9.9, -17.1,
                  49.9, -50.3])
    x, v = from_action_angle(PotentialParams(eps), q[:, None], k)
    ref = np.array([[_mp_orbit(eps, ki, qi) for ki in k] for qi in q])
    err = np.abs(np.stack((x, v), axis=-1) - ref).max(axis=-1) / np.sqrt(2.0 * k)
    assert err.max() <= 3e-14


def test_from_action_angle_is_the_circle_when_harmonic(harmonic):
    # (sqrt(2K) cos Q, sqrt(2K) sin Q) to 3 ulp of sqrt(2K): phi_0 = Q exactly,
    # and the one-tan kernel is within 4e-16 of libm's sin and cos.
    rng = np.random.default_rng(3)
    q = np.concatenate([[0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi], rng.uniform(-60.0, 60.0, 2000)])
    k = rng.uniform(0.01, 100.0, q.size)
    x, v = from_action_angle(harmonic, q, k)
    amp = np.sqrt(2.0 * k)
    assert np.all(np.abs(x - amp * np.cos(q)) <= 3 * np.spacing(amp))
    assert np.all(np.abs(v - amp * np.sin(q)) <= 3 * np.spacing(amp))


@pytest.mark.parametrize("eps", [0.1, 30.0, 100.0])
def test_from_action_angle_rotates_under_the_taylor_flow(eps):
    # The flow turns Q by -c(K) t at fixed K: the closed form at Q - c t
    # against the Taylor integrator from the closed form at Q, on 30 seeded
    # points of the default annulus.  At t = 10 the gap is 8.9e-14, 1.7e-12
    # and 1.0e-12.
    params = PotentialParams(eps)
    rng = np.random.default_rng(5)
    k, q, t = rng.uniform(0.5, 2.0, 30), rng.uniform(-np.pi, np.pi, 30), 10.0
    x, v = from_action_angle(params, q - exact_frequency(params, k)[0] * t, k)
    xt, vt = flow_map(params, *from_action_angle(params, q, k), t, tolerance=1e-12)
    assert max(np.max(np.abs(x - xt)), np.max(np.abs(v - vt))) <= 4e-12


def test_c_first_order_small_eps():
    # c(h) = 1 + (3/2) eps h + O(eps**2) for the quartic family.
    from phasemix import PotentialParams

    p = PotentialParams(epsilon=1e-4)
    for h in (0.25, 0.5, 1.0):
        npt.assert_allclose(compute_c(p, h) - 1.0, 1.5 * 1e-4 * h, rtol=1e-3)


def test_c_prime_positive_and_matches_fd(params):
    hs = np.linspace(0.5, 2.0, 16)
    cp = exact_frequency(params, hs)[1]
    assert np.all(cp > 0)
    dh = 1e-5
    fd = (compute_c(params, hs + dh) - compute_c(params, hs - dh)) / (2.0 * dh)
    npt.assert_allclose(cp, fd, atol=1e-8)


def test_c_prime_rejects_nonpositive_energy(params):
    with pytest.raises(ValueError):
        exact_frequency(params, np.array([1.0, 0.0]))[1]


def test_c_prime_frozen_value(params):
    npt.assert_allclose(exact_frequency(params, 1.0)[1], 0.09831091905424386, rtol=1e-10)


def test_c_prime_harmonic_vanishes(harmonic):
    npt.assert_allclose(exact_frequency(harmonic, 1.0)[1], 0.0, atol=1e-14)


def test_chart_range_covers_annulus():
    lo, hi = chart_range_for_support(0.5)
    assert lo < 0.5 and hi > 2.0


def test_chart_q_at_half_pi(chart):
    # By symmetry of the rate, the angle pi/2 maps to Q = pi/2 exactly.
    ks = np.linspace(chart.k_min, chart.k_max, 23)
    q = chart.q_from_chi(np.full_like(ks, np.pi / 2.0), ks)[0]
    npt.assert_allclose(q, np.pi / 2.0, atol=1e-12)
    q = chart.q_from_chi(np.full_like(ks, np.pi), ks)[0]
    npt.assert_allclose(q, np.pi, atol=1e-12)


def test_chart_equivariance(chart):
    # Q(chi + 2 pi) = Q(chi) + 2 pi and Q odd.
    chi = np.linspace(-2.0, 2.0, 9)
    k = 1.0
    q = chart.q_from_chi(chi, k)[0]
    npt.assert_allclose(chart.q_from_chi(chi + 2 * np.pi, k)[0], q + 2 * np.pi, atol=1e-12)
    npt.assert_allclose(chart.q_from_chi(-chi, k)[0], -q, atol=1e-12)


def test_chart_inverse(params, chart):
    # The closed-form point at the chart's Q(chi) has angle chi: 9.6e-14 here.
    chi = np.linspace(0.0, 2.0 * np.pi, 41)
    k = 1.3
    x, v = from_action_angle(params, chart.q_from_chi(chi, k)[0], k)
    gap = (to_angle_energy(params, x, v)[0] - chi + np.pi) % (2.0 * np.pi) - np.pi
    npt.assert_allclose(gap, 0.0, atol=1e-11)


def test_chart_c_interpolation(params, chart):
    ks = np.linspace(chart.k_min + 0.01, chart.k_max - 0.01, 11)
    npt.assert_allclose(chart.c_of_k(ks), compute_c(params, ks), atol=1e-11)


def test_chart_splines_match_scipy(chart):
    # The chart's NumPy spline reproduces SciPy's not-a-knot CubicSpline
    # bit for bit: its coefficients, and c(K) at the grid nodes and between them.
    from scipy.interpolate import CubicSpline

    c_spline = CubicSpline(chart.k_grid, chart.c)
    assert np.array_equal(chart._c_table, c_spline.c)
    b_coeffs = CubicSpline(chart.k_grid, chart.sine_coeffs, axis=0).c
    assert np.array_equal(chart._sine_table, b_coeffs.transpose(1, 0, 2))
    rng = np.random.default_rng(7)
    ks = np.concatenate([chart.k_grid, rng.uniform(chart.k_min, chart.k_max, 10_000)])
    assert np.array_equal(chart.c_of_k(ks), c_spline(ks))


def test_chart_holds_no_c_prime_table(chart):
    # c' has one route, exact_frequency; the chart keeps what the pull-back reads.
    assert [f.name for f in dataclasses.fields(chart) if f.init] == [
        "params", "k_grid", "c", "sine_coeffs", "c_error"]
    with pytest.raises(TypeError):
        dataclasses.replace(chart, c_prime=chart.c)


def test_chart_table_follows_replaced_tables(chart):
    # The energy table is built from the chart's own tables, so a chart
    # given new tables interpolates those, never the ones it was copied from.
    doubled = dataclasses.replace(chart, c=2 * chart.c, sine_coeffs=2 * chart.sine_coeffs)
    ks = np.linspace(chart.k_min, chart.k_max, 37)
    chi = np.linspace(-3.0, 3.0, 37)
    assert np.array_equal(doubled.c_of_k(ks), 2 * chart.c_of_k(ks))
    series = chart.q_from_chi(chi, ks)[0] - chi
    npt.assert_allclose(doubled.q_from_chi(chi, ks)[0], chi + 2 * series, rtol=0, atol=1e-15)


def test_build_chart_builds_one_spline(monkeypatch, params):
    # c and every b_k share one elimination on the energy grid.
    built = []
    original = action_angle._spline_table

    def counted(x, y):
        built.append(y.shape)
        return original(x, y)

    monkeypatch.setattr(action_angle, "_spline_table", counted)
    chart = build_chart(params, *chart_range_for_support(0.5), n_k=16, n_chi=64)
    assert built == [(16, 1 + chart.modes.size)]


def test_chart_delta_frozen(chart):
    # delta = min c' over the grid (anisochronism floor), frozen from
    # the converged build; positive for eps > 0.
    delta = exact_frequency(chart.params, chart.k_grid)[1].min()
    npt.assert_allclose(delta, 0.07382233778093006, rtol=1e-8)
    assert delta > 0


def test_chart_convergence(params):
    lo, hi = chart_range_for_support(0.5)
    coarse = build_chart(params, lo, hi, n_k=16, n_chi=64)
    fine = build_chart(params, lo, hi, n_k=32, n_chi=128)
    ks = np.linspace(lo, hi, 9)
    chi = np.linspace(0.3, 2.8, 7)[:, None]
    err_c = np.max(np.abs(coarse.c_of_k(ks) - fine.c_of_k(ks)))
    err_q = np.max(np.abs(coarse.q_from_chi(chi, ks)[0] - fine.q_from_chi(chi, ks)[0]))
    assert err_c < 1e-7 and err_q < 1e-7


def test_action_angle_round_trip(chart, f0, support_sample):
    x, v = support_sample
    inside, q, _, k = pull_back(f0, x, v)
    assert inside.all()
    xb, vb = from_action_angle(chart.params, q, k)
    npt.assert_allclose(xb, x, atol=1e-10)
    npt.assert_allclose(vb, v, atol=1e-10)


def test_chart_angle_error_over_the_annulus(chart, f0):
    # The chart's Q against the closed form's on 20,000 seeded points of the
    # support annulus: 3.3e-10 at the default.  validate's probes read only
    # 4.3e-11 (chart_geometry_roundtrip) and 2.6e-11 (chart_convergence) of
    # it, on their fixed grids.
    rng = np.random.default_rng(0)
    q = rng.uniform(-np.pi, np.pi, 20_000)
    k = rng.uniform(f0.h_min, f0.h_max, 20_000)
    x, v = from_action_angle(chart.params, q, k)
    chi, h = to_angle_energy(chart.params, x, v)
    gap = (chart.q_from_chi(chi, h)[0] - q + np.pi) % (2.0 * np.pi) - np.pi
    assert np.max(np.abs(gap)) <= 5e-10


def test_flow_is_rigid_rotation_in_q(params, chart, f0):
    # The conjugated flow translates Q at rate c(K) and freezes K.
    x0, v0 = from_action_angle(params, np.array([0.8]), np.array([1.2]))
    t = 25.0
    xt, vt = flow_map(params, x0, v0, t, tolerance=1e-12)
    _, q0, _, k0 = pull_back(f0, x0, v0)
    _, qt, _, kt = pull_back(f0, xt, vt)
    npt.assert_allclose(kt, k0, atol=1e-10)
    # Q decreases along the flow: Q(t) = Q(0) - c(K) t.
    drift = (qt - q0 + chart.c_of_k(k0) * t + np.pi) % (2.0 * np.pi) - np.pi
    npt.assert_allclose(drift, 0.0, atol=1e-8)


@pytest.mark.parametrize("eps", [0.0, 0.1, 100.0])
@pytest.mark.parametrize("n_chi", [8, 10, 512, 514])
def test_chart_quarter_orbit_tables(monkeypatch, eps, n_chi):
    # The chart evaluates 1/a on the quarter orbit and mirrors it onto
    # [0, pi); here it is evaluated on all n_chi angles.
    # Eight or ten angles resolve only a nearly harmonic chart, so those
    # take energies of 1e-4 / max(eps, 1).  At eps = 100, 512 angles miss
    # c by 1.6e-7 over the default energies, so that chart
    # takes a fifth of them, where it still keeps modes up to Nyquist.
    params = PotentialParams(eps)
    if n_chi < 16:
        lo, hi = 0.5e-4 / max(eps, 1.0), 2e-4 / max(eps, 1.0)
    else:
        lo, hi = (k / (5.0 if eps > 1.0 else 1.0) for k in chart_range_for_support(0.5))
    solved = []
    original = action_angle.invert_phi_squared

    def counted(p, h):
        solved.append(np.size(h))
        return original(p, h)

    monkeypatch.setattr(action_angle, "invert_phi_squared", counted)
    chart = build_chart(params, lo, hi, n_k=16, n_chi=n_chi)
    monkeypatch.undo()
    # The 16 grid energies, once: the closed form takes no orbit samples.
    assert solved == [16 * (n_chi // 4 + 1)]

    # compute_c's full-circle rule, which it refuses below 16 angles.
    chi = np.arange(n_chi) * (2.0 * np.pi / n_chi)
    inv_a = 1.0 / rate_a(params, chi, chart.k_grid[:, None])
    mean_inv = inv_a.mean(axis=1)
    c = 1.0 / mean_inv
    if n_chi >= 16:
        assert np.array_equal(c, compute_c(params, chart.k_grid, n_quad=n_chi))
    assert np.max(np.abs(chart.c / c - 1.0)) <= 4e-15

    # Every mode of the full-circle rfft: the kept ones match, the rest lie
    # below the mode floor.  The rounding scale is that of the weight
    # (1/a) / <1/a>, whose mean is 1.
    modes = np.arange(1, n_chi // 2 + 1)
    factor = np.full(modes.shape, 2.0)
    factor[-1] = 1.0
    b = factor * (rfft(inv_a / mean_inv[:, None], axis=1) / n_chi)[:, 1:].real / modes
    kept = np.zeros_like(b)
    kept[:, chart.modes - 1] = chart.sine_coeffs
    assert np.max(np.abs(kept - b)) <= 1e-15 * max(1.0, np.max(np.abs(b)))
    assert np.all(chart.modes % 2 == 0)
    assert (chart.modes.size == 0) == (eps == 0.0)


def test_chart_range_check(chart):
    with pytest.raises(ChartRangeError):
        chart.check_range(np.array([chart.k_max + 0.5]))


def test_build_chart_validation(params):
    with pytest.raises(ValueError):
        build_chart(params, 0.5, 2.0, n_k=2, n_chi=512)
    with pytest.raises(ValueError):
        build_chart(params, 0.5, 2.0, n_k=64, n_chi=7)
    with pytest.raises(ValueError):
        build_chart(params, 2.0, 0.5, n_k=64, n_chi=512)
    # Under-resolved: eight angles end the series on a mode of 0.18.
    with pytest.raises(ChartError, match="truncated"):
        build_chart(PotentialParams(100.0), *chart_range_for_support(0.1), n_k=4, n_chi=8)


def _bound(chart):
    """sum_k k |b_k| at each grid energy: below 1 proves dQ/dchi > 0 there."""
    return np.sum(np.abs(chart.modes * chart.sine_coeffs), axis=1)


def _sampled_monotone(modes, b, n_chi, floor=0.0):
    """dQ/dchi > floor sampled at every energy on a fine angle grid of
    [0, pi/2], which covers the circle: with only even modes the slope is
    even and pi-periodic."""
    n_half = min(513, max(65, n_chi // 2 + 1))
    n_half += n_half % 2 == 0
    fine = np.arange(2 * n_half) * (np.pi / (4 * n_half - 1))
    slope = 1.0 + np.einsum("rm,mk->rk", np.cos(fine[:, None] * modes), (modes * b).T)
    return not np.any(slope <= floor)


def test_slope_bound_in_closed_form():
    # dQ/dchi = c/a, and a is largest at the turning point chi = 0, so the
    # slope is at least c(h) / a(0, h).  That bound falls from 1 at eps = 0
    # to 0.59907 in the pure-quartic limit: build_chart needs no
    # monotonicity gate, only its accuracy gates.
    params, eps_h = PotentialParams(1.0), np.logspace(-6, 14, 2001)
    bound = exact_frequency(params, eps_h)[0] / rate_a(params, 0.0, eps_h)
    # The limit as eps h -> inf, AGM(1, 1/sqrt(2)) / sqrt(2).
    mean, geo = 1.0, np.sqrt(0.5)
    for _ in range(6):
        mean, geo = 0.5 * (mean + geo), np.sqrt(mean * geo)
    floor = mean / np.sqrt(2.0)
    assert abs(floor - 0.59907) < 1e-5
    assert np.all(np.diff(bound) <= 0)
    assert 1.0 - 2e-6 < bound[0] <= 1.0
    assert np.all(bound > floor) and bound[-1] - floor < 1e-7


def test_chart_beyond_the_bound_is_sampled():
    # At eps = 1, c_s = 0.3 the sum reaches 1.045, past what the bound
    # proves, and the sampled slope stays positive all the same.
    chart = build_chart(PotentialParams(1.0), *chart_range_for_support(0.3), n_k=64, n_chi=512)
    assert 1.0 < np.max(_bound(chart)) < 1.1
    assert _sampled_monotone(chart.modes, chart.sine_coeffs, 512)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(eps=st.floats(0.0, 100.0), c_s=st.floats(0.05, 0.9),
       n_chi=st.sampled_from([8, 10, 12, 16, 24, 32, 64, 512, 2048]), n_k=st.integers(4, 8))
def test_accepted_charts_are_monotone(eps, c_s, n_chi, n_k):
    # Every chart that passes the tail and c gates samples dQ/dchi above
    # 0.5 at every grid energy, near the closed-form bound's 0.599.
    try:
        chart = build_chart(PotentialParams(eps), *chart_range_for_support(c_s), n_k=n_k,
                            n_chi=n_chi)
    except ChartError:
        return
    assert _sampled_monotone(chart.modes, chart.sine_coeffs, n_chi, floor=0.5)


def test_build_chart_rejects_non_finite_tables():
    # The config rejects this potential first; the chart checks its own
    # tables for callers that build it directly.
    with np.errstate(all="ignore"), pytest.raises(ChartError, match="not finite"):
        build_chart(PotentialParams(1e308), *chart_range_for_support(0.5), n_k=64, n_chi=512)


def test_build_chart_tail_floor():
    # At eps = 100, c_s = 0.1 the modes do not decay below the mode floor
    # by the Nyquist mode: 512 angles end the series on a mode of 1.4e-5,
    # above the 1e-6 tail floor, and 2048 angles on one of 4.1e-10.
    params, (lo, hi) = PotentialParams(100.0), chart_range_for_support(0.1)
    with pytest.raises(ChartError, match="truncated"):
        build_chart(params, lo, hi, n_k=64, n_chi=512)
    chart = build_chart(params, lo, hi, n_k=64, n_chi=2048)
    assert 1e-10 < np.max(np.abs(chart.sine_coeffs[:, -1])) <= 1e-6


@pytest.mark.parametrize("eps, c_s, n_chi, change", [
    (10.0, 0.05, 512, 1.599e-7),
    (100.0, 0.1, 1024, 4.209e-7),
])
def test_build_chart_refuses_what_doubling_changes(eps, c_s, n_chi, change):
    # The last kept mode (4.6e-7, 3.1e-7) passes the tail floor, yet c errs
    # from the closed form by more than 1e-10: by as much as it changed
    # when the angles were doubled, to 4 digits.
    with pytest.raises(ChartError, match=f"errs by {change:.3e} from the closed form"):
        build_chart(PotentialParams(eps), *chart_range_for_support(c_s), n_k=64, n_chi=n_chi)
    chart = build_chart(PotentialParams(eps), *chart_range_for_support(c_s), n_k=64,
                        n_chi=2 * n_chi)
    assert chart.last_mode <= 1e-6 and chart.c_error <= 1e-10


def test_doubling_probe_reads_the_reference_rule():
    # At eps = 1, c_s = 0.02 the chart's c errs from the closed form by
    # 6.1e-13, at the grid energies where compute_c's full-circle rule at
    # n_chi angles does.  That rule's change under angle doubling, on 5
    # energies from k_min to k_max, reads the same error.
    params = PotentialParams(1.0)
    chart = build_chart(params, *chart_range_for_support(0.02), n_k=64, n_chi=512)
    exact = exact_frequency(params, chart.k_grid)[0]
    assert chart.c_error == np.max(np.abs(chart.c - exact) / exact)
    npt.assert_allclose(compute_c(params, chart.k_grid, n_quad=512), chart.c, rtol=4e-15)
    probes = chart.k_grid[[0, 15, 31, 47, 63]]
    reference = compute_c(params, probes, n_quad=1024)
    change = np.max(np.abs(reference - compute_c(params, probes, n_quad=512)) / reference)
    assert 1e-13 < chart.c_error <= 1e-10
    npt.assert_allclose(chart.c_error, change, rtol=1e-3)


# -- the angle series, its sines by the three-term recurrence ---------------


def _series_points(chart, n=4000, seed=3):
    """Seeded (chi, K) over the chart, plus angles near 0, pi/2 and pi,
    where the recurrence's 2 cos(2 chi) sits at +-2."""
    rng = np.random.default_rng(seed)
    offsets = np.array([0.0, 1e-12, 1e-8, 1e-4, 1e-2])
    special = (np.array([0.0, np.pi / 2, np.pi])[:, None] + np.concatenate([offsets, -offsets])).ravel()
    chi = np.concatenate([rng.uniform(-np.pi, np.pi, n), special, -special])
    k = rng.uniform(chart.k_min, chart.k_max, chi.size)
    return chi, k


def _assert_matches_direct_sum(chart):
    chi, k = _series_points(chart)
    b = _b_table(chart, k)
    direct = chi + np.sum(np.sin(np.multiply.outer(chi, chart.modes)) * b, axis=-1)
    scale = 1.0 + np.sum(np.abs(b), axis=-1)
    err = np.abs(chart.q_from_chi(chi, k)[0] - direct) / scale
    assert err.max() <= 4e-15


@pytest.fixture(scope="module", params=["default", "eps1", "eps100"])
def series_chart(request, chart):
    if request.param == "default":
        return chart
    if request.param == "eps1":
        return build_chart(PotentialParams(1.0), *chart_range_for_support(0.1), n_k=64, n_chi=512)
    return build_chart(PotentialParams(100.0), *chart_range_for_support(0.1), n_k=64, n_chi=2048)


def test_q_from_chi_matches_per_mode_sum(series_chart):
    _assert_matches_direct_sum(series_chart)


def test_chart_modes_are_the_dense_even_modes(series_chart):
    # The modes follow from the table's width, so a chart cannot carry an
    # odd mode, which would break the node set's x -> -x reflection.
    assert np.array_equal(series_chart.modes, 2 * np.arange(1, series_chart.sine_coeffs.shape[1] + 1))
    with pytest.raises(TypeError):
        dataclasses.replace(series_chart, modes=series_chart.modes - 1)


def test_q_from_chi_identity_without_modes(harmonic_chart):
    assert harmonic_chart.modes.size == 0
    chi, k = _series_points(harmonic_chart, n=100)
    assert np.array_equal(harmonic_chart.q_from_chi(chi, k)[0], chi)


def _scipy_q(chart, chi, k):
    """chi plus the series summed by Clenshaw's recurrence over the b_k(K)
    of SciPy's CubicSpline through the table, and 1 + sum_k |b_k(K)|, the
    scale of the sum's rounding."""
    from scipy.interpolate import CubicSpline

    theta = 2.0 * chi
    two_cos = 2.0 * np.cos(theta)
    u1, u2 = np.zeros_like(theta), np.zeros_like(theta)
    scale = np.ones_like(theta)
    if chart.modes.size:
        b = CubicSpline(chart.k_grid, chart.sine_coeffs, axis=0)(k)
        for j in reversed(range(chart.modes.size)):
            u1, u2 = two_cos * u1 - u2 + b[:, j], u1
        scale += np.sum(np.abs(b), axis=-1)
    return u1 * np.sin(theta) + chi, scale


def _assert_is_scipy_q(chart, chi, k):
    """q_from_chi at (chi, k), within round-off of :func:`_scipy_q`."""
    q = chart.q_from_chi(chi, k)[0]
    reference, scale = _scipy_q(chart, chi, k)
    assert q.shape == chi.shape
    assert np.all(np.abs(q - reference) <= 4e-15 * scale)
    return q, scale


@pytest.mark.parametrize("name, n", [
    ("experiment", 2 * action_angle._BLOCK_POINTS + 37),  # three blocks, the last partial
    ("harmonic_experiment", 500),  # no modes
    ("wide_experiment", 300),  # 2,242 modes
    ("experiment", 0),
    ("harmonic_experiment", 0),
])
def test_q_from_chi_is_the_scipy_spline_summed_by_clenshaw(request, name, n):
    # Grouped by energy interval, the pull-back sums the series in another
    # order than Clenshaw's recurrence over SciPy's spline values, and
    # agrees with it to round-off, on empty input too.
    chart = request.getfixturevalue(name).chart
    rng = np.random.default_rng(11)
    chi, k = rng.uniform(-np.pi, np.pi, n), rng.uniform(chart.k_min, chart.k_max, n)
    _assert_is_scipy_q(chart, chi, k)


def test_q_from_chi_sorts_by_a_wide_interval_key(params):
    # 299 energy intervals: the sort key needs more than 8 bits.
    chart = build_chart(params, *chart_range_for_support(0.5), n_k=300, n_chi=64)
    rng = np.random.default_rng(19)
    chi, k = rng.uniform(-np.pi, np.pi, 3000), rng.uniform(chart.k_min, chart.k_max, 3000)
    _assert_is_scipy_q(chart, chi, k)


def test_q_from_chi_follows_a_permuted_input(experiment):
    # Energies shuffled across the intervals of three blocks, some exactly
    # on the grid's nodes and on k_max: each point's Q is its own, whatever
    # order the points come in and whichever points share its block.
    chart = experiment.chart
    rng = np.random.default_rng(17)
    n = 2 * action_angle._BLOCK_POINTS + 37
    k = np.concatenate([np.sort(rng.uniform(chart.k_min, chart.k_max, n)), chart.k_grid,
                        np.full(5, chart.k_max)])
    chi = rng.uniform(-np.pi, np.pi, k.size)
    q, scale = _assert_is_scipy_q(chart, chi, k)
    perm = rng.permutation(k.size)
    q_perm, _ = _assert_is_scipy_q(chart, chi[perm], k[perm])
    assert np.all(np.abs(q_perm - q[perm]) <= 4e-15 * scale[perm])


def test_q_from_chi_memory_is_blocked(chart):
    # Direct summation holds (points x modes) temporaries: 91.6 MiB here.
    rng = np.random.default_rng(5)
    chi = rng.uniform(-np.pi, np.pi, 200_000)
    k = rng.uniform(chart.k_min, chart.k_max, 200_000)
    tracemalloc.start()
    try:
        chart.q_from_chi(chi, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_wide_chart_memory_is_blocked():
    # 2,242 kept modes: the chart and the default node set trace 14 MiB.
    # They traced 33 MiB with a sampled monotonicity check in blocks, 97 MiB
    # with its cosine table over all angles at once, and 176 MiB when the
    # node set gathered spline tables 2048 points at a time.
    exp = Experiment(ExperimentConfig(epsilon=100.0, c_s=0.02, n_k=4, n_chi=262144))
    tracemalloc.start()
    try:
        assert exp.chart.modes.size == 2242
        assert exp.node_set.support_nodes > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_validate_node_set_memory(experiment):
    # validate's 801 x 512 node set: 87,195 support nodes, 6.4 MiB traced,
    # 1.3 MiB of it one block's 21 x 8192 table of sines.  Gathering
    # (points x modes) blocks of the energy table and evaluating H and Phi
    # twice per support node peaked at 7.0 MiB.
    gauss_legendre(512)  # memoized: built before the trace
    tracemalloc.start()
    try:
        calc = MomentCalculator(experiment.f0, 801, n_quad=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calc.support_nodes == 87_195
    assert peak < 7.0 * 2**20
