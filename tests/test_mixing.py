"""Decay measurement, envelope fitting, commuted fields, and spectra."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from phasemix import (
    FitError,
    MomentCalculator,
    fit_decay,
    q_fourier_spectrum,
    sup_phi_t,
)


def test_fit_decay_pure_power_law():
    t = np.linspace(1.0, 1000.0, 4000)
    fitted = fit_decay(t, 3.0 * t**-2.0, (1.0, 1000.0))
    npt.assert_allclose(fitted.slope, -2.0, atol=1e-10)
    assert fitted.residual < 1e-10


def test_fit_decay_oscillating():
    # t**-1 * (2 + sin t): the envelope rule must recover the -1 exponent
    # even though raw values oscillate by a factor of 3.
    t = np.linspace(1.0, 1000.0, 20000)
    fitted = fit_decay(t, (2.0 + np.sin(t)) / t, (1.0, 1000.0))
    npt.assert_allclose(fitted.slope, -1.0, atol=0.05)


def test_fit_decay_envelope_monotone():
    t = np.linspace(1.0, 200.0, 2000)
    fitted = fit_decay(t, (2.0 + np.sin(t)) / t, (1.0, 200.0))
    assert np.all(np.diff(fitted.envelope) <= 0.0)


def test_fit_decay_needs_points():
    t = np.linspace(1.0, 5.0, 10)
    with pytest.raises(FitError):
        fit_decay(t, 1.0 / t, (1.0, 5.0))


def test_fit_decay_envelope_times_ignore_rounding_ties(harmonic_experiment):
    # On the eps = 0 control phi_t is periodic, so each window's maximum
    # recurs half a period later up to rounding.  Nudging every sample by
    # 1 ulp, up in alternate half periods and down in the others (and the
    # reverse), raises the later of each tied pair in one of the two
    # scans; the envelope times must not move.
    exp = harmonic_experiment
    times = exp.times
    sup, _ = sup_phi_t(exp.node_set, times)
    base = fit_decay(times, sup, exp.cfg.fit_window, exp.period)
    half_period = int(exp.cfg.samples_per_period) // 2
    alternate = (np.arange(times.size) // half_period) % 2 == 1
    up = np.nextafter(sup, np.inf)
    down = np.nextafter(sup, -np.inf)
    for nudged in (np.where(alternate, up, down), np.where(alternate, down, up)):
        fitted = fit_decay(times, nudged, exp.cfg.fit_window, exp.period)
        npt.assert_array_equal(fitted.envelope_times, base.envelope_times)


def _window_loop_envelope(times, values, window, period):
    """The envelope as one masked selection per window: the reference that
    fit_decay's array passes must reproduce bit for bit."""
    t_lo, t_hi = window
    env_t, env_v = [], []
    edges = np.arange(t_lo, t_hi + period, period)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (times >= lo) & (times < min(hi, t_hi + 1e-12))
        if not np.any(sel):
            continue
        vals = values[sel]
        top = vals.max()
        idx = np.flatnonzero(vals >= top - 1e-12 * abs(top))[0]
        env_t.append(times[sel][idx])
        env_v.append(top)
    return np.array(env_t), np.maximum.accumulate(np.array(env_v)[::-1])[::-1]


def _tied_peaks():
    # Two peaks a window, 4e-13 relative apart, the later one higher: the
    # earlier must be taken.
    times = np.arange(0.0, 40.0, 0.25)
    shape = np.tile([1.0, 3.0, 1.0, 1.0, 1.0, 3.0 * (1.0 + 4e-13), 1.0, 1.0], 20)
    return times, shape / (1.0 + np.floor(times / 2.0)), (0.0, 39.0), 2.0


def _gapped():
    # Sample gaps of 3 and 7 periods leave windows empty.
    times = np.concatenate([np.arange(1.0, 10.0, 0.3), np.arange(13.0, 20.0, 0.3),
                            np.arange(27.0, 40.0, 0.3)])
    return times, 1.0 / times**2 * (1.5 + np.sin(5.0 * times)), (1.0, 40.0), 1.0


def _cut_at_t_hi():
    # The last window [29.5, 31) is cut at t_hi + 1e-12: the samples at t_hi
    # and 1e-13 past it are in, the one 2e-12 past it is out.
    times = np.concatenate([np.arange(1.0, 30.5, 0.5), 30.5 + np.array([0.0, 1e-13, 2e-12])])
    values = 1.0 / times
    values[-2:] = [5.0, 10.0]
    return times, values, (1.0, 30.5), 1.5


@st.composite
def envelope_series(draw):
    """Increasing positive series with gaps, near-ties and samples at the cut."""
    t_lo = draw(st.floats(0.0, 10.0))
    t_hi = t_lo + draw(st.floats(0.5, 50.0))
    # From 0.5 windows (one period longer than the fit window) to 60.
    period = (t_hi - t_lo) / draw(st.sampled_from([0.5, 3.0, 10.0, 25.0, 60.0]))
    # Relative sample gaps; a gap of 40 leaves windows empty.
    gaps = np.array(draw(st.lists(st.sampled_from([1.0, 1.0, 1.0, 2.0, 3.0, 40.0]),
                                  min_size=20, max_size=300)))
    start = t_lo - draw(st.floats(0.0, 1.0))
    span = (t_hi + 1.0 - start) * draw(st.floats(0.6, 1.2))
    times = start + span * np.cumsum(gaps) / gaps.sum()
    cut = [t_hi, t_hi + 1e-13, t_hi + 2e-12]
    keep = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    times = np.unique(np.concatenate([times, [t for t, k in zip(cut, keep) if k]]))
    levels = np.array(draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=4)))
    n = times.size
    pick = np.array(draw(st.lists(st.integers(0, levels.size - 1), min_size=n, max_size=n)))
    # Within a level, values 3e-13 relative apart tie to the envelope's 1e-12.
    steps = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return times, levels[pick] * (1.0 + 3e-13 * steps), (t_lo, t_hi), period


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(envelope_series())
@example(_tied_peaks())
@example(_gapped())
@example(_cut_at_t_hi())
# A period longer than the window: one envelope point.
@example((np.linspace(1.0, 20.0, 50), np.linspace(2.0, 1.0, 50), (1.0, 20.0), 100.0))
def test_fit_decay_envelope_matches_the_window_loop(series):
    times, values, window, period = series
    env_t, env_v = _window_loop_envelope(times, values, window, period)
    if np.sum(env_v > 0) < 8:
        with pytest.raises(FitError, match="positive points"):
            fit_decay(times, values, window, period)
        return
    fitted = fit_decay(times, values, window, period)
    npt.assert_array_equal(fitted.envelope_times, env_t)
    npt.assert_array_equal(fitted.envelope, env_v)
    # The normal equations against NumPy's least-squares line: within
    # 5.4e-15 in the slope and 3.6e-15 in the residual on these series.
    ok = env_v > 0
    log_t, log_v = np.log(env_t[ok]), np.log(env_v[ok])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    resid = np.sqrt(np.mean((log_v - (slope * log_t + intercept)) ** 2))
    npt.assert_allclose(fitted.slope, slope, rtol=0, atol=1e-12 * max(1.0, abs(slope)))
    npt.assert_allclose(fitted.residual, resid, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_decay_names_a_non_finite_value(bad):
    t = np.linspace(1.0, 100.0, 1000)
    values = 1.0 / t
    values[500] = bad
    with pytest.raises(FitError, match=f"at t = {t[500]:.6g} is not finite"):
        fit_decay(t, values, (1.0, 100.0))
    with pytest.raises(FitError, match="t = 1 is not finite"):
        fit_decay(t, np.full_like(t, bad), (1.0, 100.0))


def test_fit_decay_reads_only_its_windows():
    # A non-finite value outside the fit window does not reach the envelope.
    t = np.linspace(1.0, 100.0, 1000)
    values = 1.0 / t
    values[:5] = np.nan
    base = fit_decay(t, 1.0 / t, (10.0, 90.0))
    fitted = fit_decay(t, values, (10.0, 90.0))
    npt.assert_array_equal(fitted.envelope, base.envelope)
    assert fitted.slope == base.slope


def test_fit_decay_rejects_unsorted_times():
    with pytest.raises(ValueError, match="nondecreasing"):
        fit_decay(np.array([2.0, 1.0]), np.ones(2), (1.0, 2.0))


def test_sup_phi_t_rejects_bad_times(f0):
    # A NaN compares false, so it passed the strictly-increasing check and
    # came back as a NaN sup.
    calc = MomentCalculator(f0, 51, n_quad=128)
    for times in ([], [1.0, 1.0], [1.0, np.nan, 3.0], [1.0, 3.0, np.inf], [-np.inf, 1.0], [np.nan]):
        with pytest.raises(ValueError, match="strictly increasing 1-D array of finite values"):
            sup_phi_t(calc, np.array(times))


@pytest.mark.parametrize("period", [0.0, -1.0, np.nan, np.inf])
def test_fit_decay_rejects_a_bad_period(period):
    # 0 divided by zero, -1 left no window, and NaN or inf could not size one.
    t = np.linspace(1.0, 100.0, 500)
    with pytest.raises(ValueError, match="period must be positive and finite"):
        fit_decay(t, t**-2.0, (1.0, 100.0), period=period)


def test_commuted_fields_stay_bounded(f0, commuted_sups):
    base = commuted_sups(f0, 0.0)
    probe = commuted_sups(f0, 50.0)
    assert probe[1] <= 2.0 * base[1]
    assert probe[2] <= 2.0 * base[2]


def test_commuted_field_t0_matches_dk(f0, commuted_sups):
    # At t = 0 the field Y reduces to -d_K, so |Yf| equals the plain
    # K-derivative sup.
    _, y_sup, _, _, dk_sup = commuted_sups(f0, 0.0)
    npt.assert_allclose(y_sup, dk_sup, rtol=1e-12)


def test_vector_field_fd_validation_trips(f0, commuted_sups):
    with pytest.raises(AssertionError, match="not converged"):
        # A grotesquely large step cannot pass step-halving validation.
        commuted_sups(f0, 100.0, dq=0.3, dk=0.012)


def test_spectrum_modulus_conserved(f0):
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    s0 = q_fourier_spectrum(f0, 0.0, k_mid)
    s1 = q_fourier_spectrum(f0, 7.0, k_mid)
    npt.assert_allclose(np.abs(s1), np.abs(s0), atol=1e-14)


def test_spectrum_phase_advance(chart, f0):
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    t = 7.0
    s0 = q_fourier_spectrum(f0, 0.0, k_mid)
    s1 = q_fourier_spectrum(f0, t, k_mid)
    c = float(chart.c_of_k(k_mid))
    ratio = s1[f0.m] / s0[f0.m]
    expected = np.exp(1j * f0.m * c * t)
    npt.assert_allclose(ratio, expected, atol=1e-12)


def test_spectrum_content_is_single_mode(f0):
    # The built-in data has only modes 0 and m in the angle.
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    mags = np.abs(q_fourier_spectrum(f0, 0.0, k_mid)[:7])
    assert mags[0] > 0 and mags[f0.m] > 0
    others = np.delete(mags, [0, f0.m])
    assert np.max(others) < 1e-14
