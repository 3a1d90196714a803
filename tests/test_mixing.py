"""Decay measurement, envelope fitting, commuted fields, and spectra."""

import numpy as np
import numpy.testing as npt
import pytest

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


def test_sup_phi_t_rejects_bad_times(f0):
    calc = MomentCalculator(f0, 51, n_quad=128)
    with pytest.raises(ValueError):
        sup_phi_t(calc, np.array([1.0, 1.0]))


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
