"""Decay-rate measurement and angle spectra.

This module turns solution evaluations into the quantitative mixing
diagnostics: the time envelope and log-log slope of sup_x |phi_t| and the
Fourier spectrum of fbar in the angle.  The commuted fields Y^l fbar,
Y = t c'(K) d_Q - d_K, which no subcommand measures, are probed by the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .moments import MomentCalculator, stream
from .transport import InitialData, solution_bar

__all__ = [
    "DecayFit",
    "FitError",
    "sup_phi_t",
    "fit_decay",
    "q_fourier_spectrum",
]


class FitError(RuntimeError):
    """Fit window holds a non-finite value, a time t <= 0 on the envelope,
    or too few envelope points."""


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
    whenever that slope vanishes.  Both come from one stream of the
    current on the grid's x >= 0 half (|phi_t(-x)| = |phi_t(x)|), through
    the phi_t table with j(0) in place of its 0 at x = 0, and each block of
    times is reduced to its maxima, so no (times x grid) array is held.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.isfinite(times).all()
            or np.any(np.diff(times) <= 0)):
        raise ValueError("times must be a nonempty, strictly increasing 1-D array of finite values")

    def table(rows):
        out = calc.phi_t_table(rows)
        out[..., 0] = rows[..., 0]
        return out

    sup, tail = np.empty(times.size), np.empty(times.size)
    for lo, block in stream(calc, times, calc.j_amp, "real", table):
        tail[lo : lo + len(block)] = np.abs(block[:, 0])
        sup[lo : lo + len(block)] = np.max(np.abs(block[:, 1:]), axis=1, initial=0.0)
    return sup, tail


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
    control) do not pick their time by the last bit.  ``window`` is a
    finite (lo, hi) with lo < hi.
    """
    if not np.all(np.diff(times) >= 0):
        raise ValueError("times must be nondecreasing")
    if not (np.isfinite(period) and period > 0):
        raise ValueError(f"period must be positive and finite, got {period}")
    t_lo, t_hi = window
    if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
        raise ValueError(f"window must be two finite times lo < hi, got {window}")
    # np.arange(t_lo, t_hi + period, period) fills edge i as t_lo + i * step.
    # Of those, only the edges from one below the last at or below the first
    # sample (a margin for the quotient's rounding) to one period past the
    # last sample are built: the windows outside them are empty.
    step, lead, count = (t_lo + period) - t_lo, 0, 0
    if len(times):
        t_hi = min(t_hi, times[-1] + period)
        count = int(np.ceil((t_hi + period - t_lo) / period))
        lead = int(np.fmin(np.fmax(np.floor((times[0] - t_lo) / step) - 1.0, 0.0), count))
    # Window i holds the samples in [edges[i], min(edges[i + 1], t_hi + 1e-12)).
    # Consecutive windows share a bound, so the nonempty ones tile
    # times[first:stop], each starting at its head.
    edges = t_lo + np.arange(lead, count) * step
    bounds = np.searchsorted(times, np.minimum(edges, t_hi + 1e-12))
    heads = bounds[:-1][np.diff(bounds) > 0]
    first, stop = (heads[0], bounds[-1]) if heads.size else (0, 0)
    seg_t, seg_v = times[first:stop], values[first:stop]
    bad = np.flatnonzero(~np.isfinite(seg_v))
    if bad.size:
        raise FitError(f"value {seg_v[bad[0]]} at t = {seg_t[bad[0]]:.6g} is not finite")
    heads -= first
    env_v = np.maximum.reduceat(seg_v, heads)
    # The earliest sample of each window within 1e-12 relative of its maximum.
    floor = np.repeat(env_v - 1e-12 * np.abs(env_v), np.diff(heads, append=seg_v.size))
    near = np.where(seg_v >= floor, np.arange(seg_v.size), seg_v.size)
    env_t = seg_t[np.minimum.reduceat(near, heads)]
    env_v = np.maximum.accumulate(env_v[::-1])[::-1]
    ok = env_v > 0
    if ok.sum() < 8:
        raise FitError(
            f"envelope has {int(ok.sum())} positive points in window, need >= 8"
        )
    # The least-squares line by its normal equations on centred logs.
    d_t = env_t[ok]
    if d_t[0] <= 0:
        raise FitError(f"envelope time {d_t[0]:.6g} is not positive: a log-log fit needs t > 0")
    d_t = np.log(d_t)
    d_t -= d_t.mean()
    d_v = np.log(env_v[ok])
    d_v -= d_v.mean()
    slope = (d_t @ d_v) / (d_t @ d_t)
    resid = d_v - slope * d_t
    return DecayFit(env_t, env_v, float(slope), float(np.sqrt(np.mean(resid**2))))


def q_fourier_spectrum(f0: InitialData, t: float, k_energy: float) -> np.ndarray:
    """Discrete Fourier coefficients fhat_k, k = 0..max(8, m), of
    Q -> fbar(t, Q, K) at fixed K, from max(64, 4 max(8, m)) angles.

    Mode m of the data is among them.  For the built-in data the exact
    evolution is a phase rotation: fhat_k(t) = fhat_k(0) * exp(i k c(K) t).
    """
    k_max = max(8, f0.m)
    n_q = max(64, 4 * k_max)
    qs = np.arange(n_q) * (2.0 * np.pi / n_q)
    vals = solution_bar(f0, t, qs, k_energy)
    return (rfft(vals) / n_q)[: k_max + 1]
