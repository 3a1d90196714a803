"""Decay measurement, envelope fitting, commuted fields, and spectra."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from phasemix import (
    DecayReport,
    FitError,
    MomentCalculator,
    fit_decay,
    q_fourier_spectrum,
    spatial_grid,
    sup_phi_t,
    vector_field_norms,
)


def test_fit_decay_pure_power_law():
    t = np.linspace(1.0, 1000.0, 4000)
    report = DecayReport(times=t, sup_values=3.0 * t**-2.0, tail_slopes=np.zeros_like(t))
    fitted = fit_decay(report, (1.0, 1000.0))
    npt.assert_allclose(fitted.slope, -2.0, atol=1e-10)
    assert fitted.residual < 1e-10


def test_fit_decay_oscillating():
    # t**-1 * (2 + sin t): the envelope rule must recover the -1 exponent
    # even though raw values oscillate by a factor of 3.
    t = np.linspace(1.0, 1000.0, 20000)
    report = DecayReport(
        times=t, sup_values=(2.0 + np.sin(t)) / t, tail_slopes=np.zeros_like(t)
    )
    fitted = fit_decay(report, (1.0, 1000.0))
    npt.assert_allclose(fitted.slope, -1.0, atol=0.05)


def test_fit_decay_envelope_monotone():
    t = np.linspace(1.0, 200.0, 2000)
    report = DecayReport(
        times=t, sup_values=(2.0 + np.sin(t)) / t, tail_slopes=np.zeros_like(t)
    )
    fitted = fit_decay(report, (1.0, 200.0))
    assert np.all(np.diff(fitted.envelope) <= 0.0)


def test_fit_decay_needs_points():
    t = np.linspace(1.0, 5.0, 10)
    report = DecayReport(times=t, sup_values=1.0 / t, tail_slopes=np.zeros_like(t))
    with pytest.raises(FitError):
        fit_decay(report, (1.0, 5.0))


def test_fit_decay_envelope_times_ignore_rounding_ties(harmonic_experiment):
    # On the eps = 0 control phi_t is periodic, so each window's maximum
    # recurs half a period later up to rounding.  Nudging every sample by
    # 1 ulp, up in alternate half periods and down in the others (and the
    # reverse), raises the later of each tied pair in one of the two
    # scans; the envelope times must not move.
    exp = harmonic_experiment
    report = sup_phi_t(exp.node_set, exp.times)
    base = fit_decay(report, exp.cfg.fit_window, exp.period)
    half_period = int(exp.cfg.samples_per_period) // 2
    alternate = (np.arange(report.times.size) // half_period) % 2 == 1
    up = np.nextafter(report.sup_values, np.inf)
    down = np.nextafter(report.sup_values, -np.inf)
    for nudged in (np.where(alternate, up, down), np.where(alternate, down, up)):
        fitted = fit_decay(replace(report, sup_values=nudged), exp.cfg.fit_window, exp.period)
        npt.assert_array_equal(fitted.envelope_times, base.envelope_times)


def test_sup_phi_t_rejects_bad_times(params, f0):
    calc = MomentCalculator(f0, spatial_grid(params, 0.5, 51), n_quad=128)
    with pytest.raises(ValueError):
        sup_phi_t(calc, np.array([1.0, 1.0]))


def test_commuted_fields_stay_bounded(f0):
    base = vector_field_norms(f0, 0.0)
    probe = vector_field_norms(f0, 50.0)
    assert probe.sup[1] <= 2.0 * base.sup[1]
    assert probe.sup[2] <= 2.0 * base.sup[2]


def test_commuted_field_t0_matches_dk(f0):
    # At t = 0 the field Y reduces to -d_K, so |Yf| equals the plain
    # K-derivative sup.
    base = vector_field_norms(f0, 0.0)
    npt.assert_allclose(base.sup[1], base.dk_sup, rtol=1e-12)


def test_vector_field_fd_validation_trips(f0):
    from phasemix.mixing import FDValidationError

    with pytest.raises(FDValidationError):
        # A grotesquely large step cannot pass step-halving validation.
        vector_field_norms(f0, 100.0, dq=0.3, dk=0.012)


def test_spectrum_modulus_conserved(f0):
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    s0 = q_fourier_spectrum(f0, 0.0, k_mid)
    s1 = q_fourier_spectrum(f0, 7.0, k_mid)
    npt.assert_allclose(
        np.abs(s1.coefficients), np.abs(s0.coefficients), atol=1e-14
    )


def test_spectrum_phase_advance(chart, f0):
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    t = 7.0
    s0 = q_fourier_spectrum(f0, 0.0, k_mid)
    s1 = q_fourier_spectrum(f0, t, k_mid)
    c = float(chart.c_of_k(k_mid))
    ratio = s1.coefficients[f0.m] / s0.coefficients[f0.m]
    expected = np.exp(1j * f0.m * c * t)
    npt.assert_allclose(ratio, expected, atol=1e-12)


def test_spectrum_content_is_single_mode(f0):
    # The built-in data has only modes 0 and m in the angle.
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    s = q_fourier_spectrum(f0, 0.0, k_mid, k_max=6)
    mags = np.abs(s.coefficients)
    assert mags[0] > 0 and mags[f0.m] > 0
    others = np.delete(mags, [0, f0.m])
    assert np.max(others) < 1e-14


def test_spectrum_g_relation(f0):
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    s = q_fourier_spectrum(f0, 0.0, k_mid)
    modes = np.arange(1, s.g_coefficients.size + 1)
    npt.assert_allclose(
        s.g_coefficients * (1j * modes), s.coefficients[1:], atol=1e-15
    )


def test_spectrum_resolution_guard(f0):
    with pytest.raises(ValueError):
        q_fourier_spectrum(f0, 0.0, 1.0, k_max=8, n_q=16)
