"""Hamiltonian characteristic flow for xdot = v, vdot = -Phi'(x).

Two integrators are provided: a fixed-step symplectic (velocity-Verlet)
method for long-time transport with bounded energy drift, and a
high-order adaptive method (DOP853) used as the accuracy oracle.  The
orbit period, an independent oracle for the orbital frequency, is
located by event detection on the adaptive integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .potential import PotentialParams, dphi

__all__ = ["FlowSpec", "FlowError", "flow_map", "orbit_period"]


class FlowError(RuntimeError):
    """Raised when the adaptive integrator fails to meet its tolerance."""


@dataclass(frozen=True)
class FlowSpec:
    """Integrator selection: fixed-step symplectic or adaptive DOP853."""

    method: str = "symplectic"
    step: float = 1e-3
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.method not in ("symplectic", "adaptive"):
            raise ValueError(f"unknown flow method {self.method!r}")
        if self.method == "symplectic" and not self.step > 0:
            raise ValueError("step must be > 0")
        if self.method == "adaptive" and not 0 < self.tolerance <= 1e-3:
            raise ValueError("tolerance must lie in (0, 1e-3]")


def _rhs(params: PotentialParams):
    def rhs(t, y):
        n = y.shape[0] // 2
        return np.concatenate([y[n:], -dphi(params, y[:n])])

    return rhs


def flow_map(params: PotentialParams, x, v, t: float, spec: FlowSpec = FlowSpec()):
    """Transport phase points (x, v) for time t (either sign).

    Returns the transported (x, v) pair with the broadcast shape of the
    inputs; scalars in, scalars out.
    """
    x_in = np.asarray(x, dtype=float)
    v_in = np.asarray(v, dtype=float)
    scalar = x_in.ndim == 0 and v_in.ndim == 0
    x_b, v_b = np.broadcast_arrays(x_in, v_in)
    shape = x_b.shape
    xs = np.ascontiguousarray(x_b, dtype=float).ravel().copy()
    vs = np.ascontiguousarray(v_b, dtype=float).ravel().copy()

    if t != 0.0:
        if spec.method == "symplectic":
            # Velocity-Verlet with the step shrunk to divide t evenly.
            nsteps = max(1, math.ceil(abs(t) / spec.step))
            dt = t / nsteps
            half = 0.5 * dt
            a = -dphi(params, xs)
            for _ in range(nsteps):
                vs += half * a
                xs += dt * vs
                a = -dphi(params, xs)
                vs += half * a
        else:
            sol = solve_ivp(
                _rhs(params),
                (0.0, t),
                np.concatenate([xs, vs]),
                method="DOP853",
                rtol=spec.tolerance,
                atol=spec.tolerance * 1e-3,
            )
            if not sol.success:
                raise FlowError(f"adaptive flow failed: {sol.message}")
            n = xs.size
            xs, vs = sol.y[:n, -1], sol.y[n:, -1]

    xs = xs.reshape(shape)
    vs = vs.reshape(shape)
    if scalar:
        return float(xs), float(vs)
    return xs, vs


def orbit_period(params: PotentialParams, h: float, spec: FlowSpec | None = None) -> float:
    """Period of the closed orbit of energy h > 0.

    Starts on the level set at (0, sqrt(2h)) and measures the time
    between the first two passages through the right turning point
    (v = 0 crossed downward; on these orbits v vanishes only at the two
    turning points, and the crossing at x > 0 is the downward one).
    Crossing times are refined on the dense output of the integrator.
    """
    if not h > 0:
        raise ValueError("energy must be > 0")
    tol = spec.tolerance if spec is not None and spec.method == "adaptive" else 1e-12

    eps = params.epsilon

    def rhs(t, y):
        return [y[1], -(y[0] + 2.0 * eps * y[0] ** 3)]

    def turning(t, y):
        return y[1]

    turning.direction = -1

    # c(h) >= 1 for eps >= 0, so the period never exceeds 2*pi and 1.6
    # periods of the harmonic clock suffice to see two crossings.
    sol = solve_ivp(
        rhs,
        (0.0, 1.6 * 2.0 * np.pi),
        [0.0, np.sqrt(2.0 * h)],
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        events=turning,
        dense_output=True,
    )
    if not sol.success:
        raise FlowError(f"period integration failed: {sol.message}")
    crossings = sol.t_events[0]
    if crossings.size < 2:
        raise FlowError("fewer than two turning-point crossings detected")
    return float(crossings[1] - crossings[0])
