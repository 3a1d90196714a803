"""Hamiltonian characteristic flow for xdot = v, vdot = -Phi'(x) = -x - 2 eps x**3.

The force is a polynomial, so the Taylor coefficients of a trajectory
follow from the recurrences

    x_{k+1} = v_k / (k + 1),   v_{k+1} = -(x_k + 2 eps (x**3)_k) / (k + 1),

with ``x**3`` built from the Cauchy products ``x*x`` and ``(x*x)*x``.
The integrator sums a fixed-order series per step and chooses the step
from the size of the last two coefficients, after A. Jorba and M. Zou,
Exp. Math. 14 (2005) 99.  It drives the backward-characteristics route
against which the action-angle chart is checked, and the tests check it
in turn against SciPy's DOP853.  The orbit period, an independent oracle
for the orbital frequency, is located by Newton iteration on the series
for v of the step that crosses the turning point.
"""

from __future__ import annotations

import math

import numpy as np

from .potential import PotentialParams

__all__ = ["FlowError", "flow_map", "orbit_period"]

# Series order; Jorba and Zou take about -ln(tolerance) / 2 + 1, which is
# 19 for 1e-16.
ORDER = 20
# Steps allowed per call before the integration counts as failed.
MAX_STEPS = 100_000
# Local error tolerance of orbit_period's steps.
PERIOD_TOLERANCE = 1e-12


class FlowError(RuntimeError):
    """Raised when the flow leaves the finite range or exceeds its step cap."""


def _series(eps: float, x: np.ndarray, v: np.ndarray):
    """Taylor coefficients of (x, v) about the current state, row k for s**k."""
    xs = np.empty((ORDER + 1,) + x.shape)
    vs = np.empty_like(xs)
    sq = np.empty_like(xs)
    xs[0], vs[0] = x, v
    for k in range(ORDER):
        back = xs[k::-1]
        sq[k] = np.vecdot(xs[: k + 1], back, axis=0)
        cube = np.vecdot(sq[: k + 1], back, axis=0)
        xs[k + 1] = vs[k] / (k + 1)
        vs[k + 1] = -(xs[k] + 2.0 * eps * cube) / (k + 1)
    return xs, vs


def _step(xs: np.ndarray, vs: np.ndarray, tol: float) -> float:
    """Jorba-Zou step: the last two terms of the series stay below tol."""
    scale = max(1.0, float(np.max(np.abs(xs[0]))), float(np.max(np.abs(vs[0]))))
    h = math.inf
    for k in (ORDER - 1, ORDER):
        size = max(float(np.max(np.abs(xs[k]))), float(np.max(np.abs(vs[k]))))
        if size > 0:
            h = min(h, (tol * scale / size) ** (1.0 / k))
    return h * math.exp(-0.7 / (ORDER - 1))


def _at(coeffs: np.ndarray, s: float):
    """Sum of the series coeffs[k] s**k (k along the first axis)."""
    powers = s ** np.arange(coeffs.shape[0], dtype=float)
    return np.vecdot(powers.reshape(powers.shape + (1,) * (coeffs.ndim - 1)), coeffs, axis=0)


def flow_map(params: PotentialParams, x, v, t: float, tolerance: float = 1e-10):
    """Transport phase points (x, v) for time t (either sign).

    ``tolerance`` bounds the local error of each Taylor step, relative to
    max(1, |state|), and must lie in (0, 1e-3].  Returns the transported
    (x, v) pair as arrays of the broadcast shape of the inputs, 0-d for
    scalar inputs.  All points share one step sequence.
    """
    if not 0 < tolerance <= 1e-3:
        raise ValueError("tolerance must lie in (0, 1e-3]")
    x_b, v_b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    shape = x_b.shape
    xs = x_b.ravel().copy()
    vs = v_b.ravel().copy()

    left = abs(float(t))
    direction = math.copysign(1.0, t)
    steps = 0
    while left > 0 and xs.size:
        if steps == MAX_STEPS:
            raise FlowError(f"flow exceeded {MAX_STEPS} Taylor steps")
        cx, cv = _series(params.epsilon, xs, vs)
        h = _step(cx, cv, tolerance)
        if not h > 0:
            raise FlowError("Taylor step collapsed")
        h = min(h, left)
        left = 0.0 if h == left else left - h
        xs, vs = _at(cx, direction * h), _at(cv, direction * h)
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise FlowError("flow left the finite range")
        steps += 1

    return xs.reshape(shape), vs.reshape(shape)


def _downward_root(v: np.ndarray, h: float) -> float:
    """Root in (0, h] of the series v(s), which falls from v(0) > 0 to v(h) <= 0.

    Newton from the secant guess, kept inside the bracket by bisection.
    """
    dv = v[1:] * np.arange(1, v.size)
    lo, hi = 0.0, h
    s = h * v[0] / (v[0] - _at(v, h))
    for _ in range(100):
        val = _at(v, s)
        if val > 0:
            lo = s
        else:
            hi = s
        slope = _at(dv, s)
        nxt = s - val / slope if slope != 0 else 0.5 * (lo + hi)
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= 4 * np.finfo(float).eps * h:
            return float(nxt)
        s = nxt
    raise FlowError("turning-point root did not converge")


def orbit_period(params: PotentialParams, h: float) -> float:
    """Period of the closed orbit of energy h > 0.

    Starts on the level set at (0, sqrt(2h)) and measures the time
    between the first two passages through the right turning point
    (v = 0 crossed downward; on these orbits v vanishes only at the two
    turning points, and the crossing at x > 0 is the downward one).
    Each crossing is located on the series of the step that contains it.
    """
    if not h > 0:
        raise ValueError("energy must be > 0")
    x = np.zeros(1)
    v = np.array([math.sqrt(2.0 * h)])
    t = 0.0
    crossings = []
    for _ in range(MAX_STEPS):
        cx, cv = _series(params.epsilon, x, v)
        step = _step(cx, cv, PERIOD_TOLERANCE)
        x_end, v_end = _at(cx, step), _at(cv, step)
        if v[0] > 0 >= v_end[0]:
            crossings.append(t + _downward_root(cv[:, 0], step))
            if len(crossings) == 2:
                return crossings[1] - crossings[0]
        x, v = x_end, v_end
        t += step
    raise FlowError(f"fewer than two turning-point crossings in {MAX_STEPS} steps")
