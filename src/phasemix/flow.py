"""Hamiltonian characteristic flow for xdot = v, vdot = -Phi'(x) = -x - 2 eps x**3.

The force is a polynomial, so the Taylor coefficients of a trajectory
follow from the recurrences

    x_{k+1} = v_k / (k + 1),   v_{k+1} = -(x_k + 2 eps (x**3)_k) / (k + 1),

with ``x**3`` built from the Cauchy products ``x*x`` and ``(x*x)*x``.
The integrator sums a fixed-order series per step and chooses the step
from the size of the last two coefficients, after A. Jorba and M. Zou,
Exp. Math. 14 (2005) 99.  It drives the backward-characteristics route
against which the action-angle chart is checked, and the tests check it
in turn against SciPy's DOP853.
"""

from __future__ import annotations

import math

import numpy as np

from .potential import PotentialParams

__all__ = ["FlowError", "flow_map"]

# Series order; Jorba and Zou take about -ln(tolerance) / 2 + 1, which is
# 19 for 1e-16.
ORDER = 20
# Steps allowed per call before the integration counts as failed.
MAX_STEPS = 100_000


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


# The powers k of s**k in a series.
_EXPONENTS = np.arange(ORDER + 1, dtype=float)
# The series rows whose sizes set a step: the state and the last two terms.
_SIZED = [0, ORDER - 1, ORDER]


def _step(xs: np.ndarray, vs: np.ndarray, tol: float) -> float:
    """Jorba-Zou step: the last two terms of the series stay below tol."""
    rows = np.concatenate((xs[_SIZED], vs[_SIZED]), axis=1)
    state, *sizes = np.max(np.abs(rows), axis=1).tolist()
    scale = max(1.0, state)
    h = math.inf
    for k, size in zip(_SIZED[1:], sizes):
        if size > 0:
            h = min(h, (tol * scale / size) ** (1.0 / k))
    return h * math.exp(-0.7 / (ORDER - 1))


def _at(coeffs: np.ndarray, s: float, out: np.ndarray) -> None:
    """Sum of the series coeffs[k] s**k, column by column, into ``out``."""
    np.vecdot((s**_EXPONENTS)[:, None], coeffs, axis=0, out=out)


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
    # The state pair, rows x and v.
    state = np.stack((x_b.ravel(), v_b.ravel()))

    left = abs(float(t))
    direction = math.copysign(1.0, t)
    steps = 0
    while left > 0 and state.size:
        if steps == MAX_STEPS:
            raise FlowError(f"flow exceeded {MAX_STEPS} Taylor steps")
        cx, cv = _series(params.epsilon, *state)
        h = _step(cx, cv, tolerance)
        if not h > 0:
            raise FlowError("Taylor step collapsed")
        h = min(h, left)
        left = 0.0 if h == left else left - h
        _at(cx, direction * h, out=state[0])
        _at(cv, direction * h, out=state[1])
        if not np.isfinite(state).all():
            raise FlowError("flow left the finite range")
        steps += 1

    return state[0].reshape(shape), state[1].reshape(shape)
