"""Hamiltonian characteristic flow for xdot = v, vdot = -Phi'(x) = -x - 2 eps x**3.

The force is a polynomial, so the Taylor coefficients of a trajectory's
position follow from x_0 = x, x_1 = v and the one recurrence

    x_{k+2} = -(x_k + 2 eps (x**3)_k) / ((k + 1) (k + 2)),

with ``x**3`` built from the Cauchy products ``x*x`` and ``(x*x)*x``; the
velocity is the series' derivative, v_k = (k + 1) x_{k+1}.  The
integrator sums a fixed-order series per step and chooses the step from
the size of the last two coefficients of x and of v, after A. Jorba and
M. Zou, Exp. Math. 14 (2005) 99.  It drives the backward-characteristics
route against which the action-angle chart is checked, and the tests
check it in turn against SciPy's DOP853.
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
    """Raised when the flow leaves the finite range or cannot reach t within its step cap."""


def _series(eps: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Taylor coefficients x_0, ..., x_{ORDER+1} of the position about the
    current state, row k for s**k."""
    xs = np.empty((ORDER + 2,) + x.shape)
    sq = np.empty((ORDER,) + x.shape)
    xs[0], xs[1] = x, v
    for k in range(ORDER):
        back = xs[k::-1]
        sq[k] = np.vecdot(xs[: k + 1], back, axis=0)
        cube = np.vecdot(sq[: k + 1], back, axis=0)
        xs[k + 2] = -(xs[k] + 2.0 * eps * cube) / ((k + 1) * (k + 2))
    return xs


# The powers k of s**k in a series.
_EXPONENTS = np.arange(ORDER + 1, dtype=float)
# The series rows whose sizes set a step: the state x_0 and x_1 = v_0, and
# x_{ORDER-1}, x_ORDER and x_{ORDER+1}, which give the last two terms of x
# and of v = (k + 1) x_{k+1}.
_SIZED = [0, 1, ORDER - 1, ORDER, ORDER + 1]


def _step(xs: np.ndarray, tol: float) -> float:
    """Jorba-Zou step: the last two terms of the x and v series stay below tol."""
    x0, v0, x_pen, x_last, x_next = np.max(np.abs(xs[_SIZED]), axis=1).tolist()
    scale = max(1.0, x0, v0)
    h = math.inf
    last_two = ((ORDER - 1, max(x_pen, ORDER * x_last)), (ORDER, max(x_last, (ORDER + 1) * x_next)))
    for k, size in last_two:
        if size > 0:
            h = min(h, (tol * scale / size) ** (1.0 / k))
    return h * math.exp(-0.7 / (ORDER - 1))


def flow_map(params: PotentialParams, x, v, t: float, tolerance: float = 1e-10):
    """Transport phase points (x, v) for time t (either sign).

    ``tolerance`` bounds the local error of each Taylor step, relative to
    max(1, |state|), and must lie in (0, 1e-3].  Returns the transported
    (x, v) pair as arrays of the broadcast shape of the inputs, 0-d for
    scalar inputs.  All points share one step sequence.
    """
    if not 0 < tolerance <= 1e-3:
        raise ValueError("tolerance must lie in (0, 1e-3]")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    x_b, v_b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    shape = x_b.shape
    # The state pair, rows x and v.
    state = np.stack((x_b.ravel(), v_b.ravel()))

    left = abs(float(t))
    direction = math.copysign(1.0, t)
    steps = 0
    while left > 0 and state.size:
        xs = _series(params.epsilon, *state)
        h = _step(xs, tolerance)
        if not h > 0:
            raise FlowError("Taylor step collapsed")
        # Refuse a time beyond 100 times this step per step left (a step varies
        # by under 2x along an orbit), and at the cap any time left.
        if left > 100.0 * h * (MAX_STEPS - steps):
            raise FlowError(f"flow cannot cover t = {t:g} in the {MAX_STEPS} Taylor steps allowed")
        h = min(h, left)
        left = 0.0 if h == left else left - h
        # x = sum_k x_k s**k and v = sum_k (k + 1) x_{k+1} s**k, k <= ORDER.
        powers = (direction * h) ** _EXPONENTS
        np.vecdot(powers[:, None], xs[:-1], axis=0, out=state[0])
        np.vecdot((powers * (_EXPONENTS + 1.0))[:, None], xs[1:], axis=0, out=state[1])
        if not np.isfinite(state).all():
            raise FlowError("flow left the finite range")
        steps += 1

    return state[0].reshape(shape), state[1].reshape(shape)
