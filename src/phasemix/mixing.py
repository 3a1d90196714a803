"""Decay-rate measurement, commuting-field probes, and angle spectra.

This module turns solution evaluations into the quantitative mixing
diagnostics: the time envelope and log-log slope of sup_x |phi_t|, the
uniform-in-time norms of the commuted fields Y^l fbar with
Y = t c'(K) d_Q - d_K, and the Fourier spectrum of fbar in the angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .moments import MomentCalculator
from .transport import InitialData, solution_bar

__all__ = [
    "DecayFit",
    "VectorFieldProbe",
    "FitError",
    "FDValidationError",
    "sup_phi_t",
    "fit_decay",
    "vector_field_norms",
    "q_fourier_spectrum",
]

# vector_field_norms samples fbar on _PROBE_Q angles x _PROBE_K energies and
# requires its sup norms to agree to _FD_RTOL relative under step halving.
_PROBE_Q = 96
_PROBE_K = 81
_FD_RTOL = 0.01


class FitError(RuntimeError):
    """Fit window does not contain enough envelope points."""


class FDValidationError(RuntimeError):
    """Finite-difference probe failed its step-halving validation."""


@dataclass(frozen=True)
class DecayFit:
    """Oscillation envelope of sup_x |phi_t| and its log-log fit."""

    envelope_times: np.ndarray
    envelope: np.ndarray
    slope: float
    residual: float


def sup_phi_t(calc: MomentCalculator, times) -> tuple[np.ndarray, np.ndarray]:
    """sup_x |phi_t| and the tail slope |j(t, 0)| per sample time.

    The sup is taken on the compact grid: phi_t is affine beyond x_max
    with slope |j(t, 0)|, so the tail sup is attained at the boundary
    whenever that slope vanishes.  Both are streamed from the grid's
    x >= 0 half (``MomentCalculator.phi_t_sup``), a block of times at a
    time, so no (times x grid) array is held.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a nonempty, strictly increasing 1-D array")
    return calc.phi_t_sup(times)


def fit_decay(
    times: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
    period: float = 2.0 * np.pi,
) -> DecayFit:
    """Least-squares log-log slope of the oscillation envelope.

    The envelope takes the maximum of ``values`` over successive windows
    of one orbital period, attributed to the time at which the maximum
    occurs, then replaces each point by the running maximum of all later
    points.  Fitting raw oscillating values would bias the slope, and
    window maxima alone still dip inside slow beat nulls when several
    orbital frequencies interfere; the running maximum is the tightest
    monotone majorant and isolates the decay rate.  Within a window the
    earliest sample within 1e-12 relative of the maximum is taken, so
    maxima that tie to rounding (periodic data, e.g. the eps = 0
    control) do not pick their time by the last bit.
    """
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
    env_t = np.array(env_t)
    env_v = np.maximum.accumulate(np.array(env_v)[::-1])[::-1]
    ok = env_v > 0
    if ok.sum() < 8:
        raise FitError(
            f"envelope has {int(ok.sum())} positive points in window, need >= 8"
        )
    log_t = np.log(env_t[ok])
    log_v = np.log(env_v[ok])
    slope, intercept = np.polyfit(log_t, log_v, 1)
    resid = log_v - (slope * log_t + intercept)
    return DecayFit(env_t, env_v, float(slope), float(np.sqrt(np.mean(resid**2))))


@dataclass
class VectorFieldProbe:
    """Sup norms of f, Yf, Y^2 f plus plain-derivative contrasts."""

    sup: dict[int, float]
    dq_sup: float
    dk_sup: float


def vector_field_norms(
    f0: InitialData, t: float, dq: float = 1e-3, dk: float = 1e-3
) -> VectorFieldProbe:
    """Apply Y = t c'(K) d_Q - d_K by centered differences on a sample grid.

    Y^2 nests the same stencil.  The probe repeats the computation at half
    steps and requires the sup norms of Yf and Y^2 f to agree to
    ``_FD_RTOL`` relative, guarding against under-resolved differences.
    """
    qs = np.linspace(0.0, 2.0 * np.pi, _PROBE_Q, endpoint=False)
    ks = np.linspace(f0.h_min, f0.h_max, _PROBE_K)
    qq, kk = np.meshgrid(qs, ks, indexing="ij")

    def f(q, k):
        return solution_bar(f0, t, q, k)

    def apply_y(g, hq, hk):
        def yg(q, k):
            dq_term = (g(q + hq, k) - g(q - hq, k)) / (2.0 * hq)
            dk_term = (g(q, k + hk) - g(q, k - hk)) / (2.0 * hk)
            return t * f0.chart.c_prime_of_k(k) * dq_term - dk_term
        return yg

    def measure(hq, hk):
        y1 = apply_y(f, hq, hk)
        y2 = apply_y(y1, hq, hk)
        s0 = float(np.max(np.abs(f(qq, kk))))
        s1 = float(np.max(np.abs(y1(qq, kk))))
        s2 = float(np.max(np.abs(y2(qq, kk))))
        dq_sup = float(np.max(np.abs((f(qq + hq, kk) - f(qq - hq, kk)) / (2.0 * hq))))
        dk_sup = float(np.max(np.abs((f(qq, kk + hk) - f(qq, kk - hk)) / (2.0 * hk))))
        return s0, s1, s2, dq_sup, dk_sup

    base = measure(dq, dk)
    fine = measure(dq / 2.0, dk / 2.0)
    for coarse_v, fine_v in zip(base[1:3], fine[1:3]):
        scale = max(abs(fine_v), 1e-300)
        if abs(coarse_v - fine_v) / scale > _FD_RTOL:
            raise FDValidationError(
                f"finite-difference probe not converged at steps ({dq}, {dk})"
            )
    return VectorFieldProbe(
        sup={0: base[0], 1: base[1], 2: base[2]},
        dq_sup=base[3],
        dk_sup=base[4],
    )


def q_fourier_spectrum(
    f0: InitialData,
    t: float,
    k_energy: float,
    k_max: int = 8,
    n_q: int = 64,
) -> np.ndarray:
    """Discrete Fourier coefficients fhat_k, k = 0..k_max, of Q -> fbar(t, Q, K)
    at fixed K.

    For the built-in data the exact evolution is a phase rotation:
    fhat_k(t) = fhat_k(0) * exp(i k c(K) t).
    """
    if n_q < 4 * k_max:
        raise ValueError("n_q must be >= 4 * k_max")
    qs = np.arange(n_q) * (2.0 * np.pi / n_q)
    vals = solution_bar(f0, t, qs, k_energy)
    return (rfft(vals) / n_q)[: k_max + 1]
