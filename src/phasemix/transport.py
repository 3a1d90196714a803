"""Exact solutions of the transport equation and the initial-data family.

The equation in action-angle variables is a rigid rotation, so the
solution is known in closed form and can be evaluated by two independent
routes: pulling the initial data back along numerically integrated
characteristics, or translating the angle through the precomputed chart.
The chart route is the production path; the characteristic route is the
validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action_angle import OrbitChart, to_action_angle
from .flow import flow_map
from .potential import PotentialParams, hamiltonian

__all__ = [
    "InitialData",
    "make_initial_data",
    "evaluate_f_characteristic",
    "evaluate_f_actionangle",
    "pull_back",
]


@dataclass(frozen=True)
class InitialData:
    """Smooth data supported on the energy annulus c_s <= H <= 1/c_s.

    f0(x, v) = B(H) * (1 + alpha * sin(m * Q)) with B the standard bump
    exp(-1/(1 - s**2)) in the scaled energy s, vanishing to all orders
    at the annulus edge; nonnegative because alpha < 1.
    """

    c_s: float
    alpha: float
    m: int
    chart: OrbitChart

    @property
    def params(self) -> PotentialParams:
        """The potential, the one the chart was built for."""
        return self.chart.params

    @property
    def h_min(self) -> float:
        return self.c_s

    @property
    def h_max(self) -> float:
        return 1.0 / self.c_s

    def bump(self, h):
        """Radial bump B(H), supported on the open annulus."""
        mid = 0.5 * (self.h_min + self.h_max)
        half_width = 0.5 * (self.h_max - self.h_min)
        s = (np.asarray(h, dtype=float) - mid) / half_width
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out

    def value_bar(self, q, k):
        """Data in action-angle coordinates: B(K) * (1 + alpha sin(mQ))."""
        q = np.asarray(q, dtype=float)
        return self.bump(k) * (1.0 + self.alpha * np.sin(self.m * q))

    def value(self, x, v):
        """Data in phase-space coordinates; zero off the annulus."""
        return evaluate_f_actionangle(self, 0.0, x, v)


def make_initial_data(
    c_s: float,
    alpha: float,
    m: int,
    chart: OrbitChart,
) -> InitialData:
    """Validated constructor for the built-in data family in ``chart``'s potential."""
    if not 0 < c_s < 1:
        raise ValueError("c_s must lie in (0, 1)")
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError("m must be an integer >= 1")
    lo, hi = chart.k_min, chart.k_max
    if lo > c_s or hi < 1.0 / c_s:
        raise ValueError("chart energy range does not cover the support annulus")
    return InitialData(c_s=c_s, alpha=alpha, m=int(m), chart=chart)


def evaluate_f_characteristic(f0: InitialData, t: float, x, v):
    """Exact solution via backward characteristics: f0(flow(-t)(x, v))."""
    x0, v0 = flow_map(f0.params, x, v, -t)
    return f0.value(x0, v0)


def pull_back(f0: InitialData, x, v):
    """Chart coordinates of the phase points inside the support annulus.

    Returns ``(inside, q, k)``: the mask of the broadcast points with
    h_min < H < h_max, and the angle Q and energy K in ``f0.chart`` of
    those points in row-major order.  Points outside the annulus never
    touch the chart; points inside it but outside the chart range are a
    configuration error and raise :class:`ChartRangeError`.
    """
    x_b, v_b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    h = np.asarray(hamiltonian(f0.params, x_b, v_b))
    inside = (h > f0.h_min) & (h < f0.h_max)
    if not inside.any():
        return inside, h[inside], h[inside]
    return (inside, *to_action_angle(f0.chart, x_b[inside], v_b[inside]))


def evaluate_f_actionangle(f0: InitialData, t: float, x, v):
    """Exact solution via the chart: fbar0(Q + c(K) t, K).

    Zero off the support annulus; see :func:`pull_back` for the chart
    range check.
    """
    inside, q, k = pull_back(f0, x, v)
    out = np.zeros(inside.shape)
    if k.size:
        out[inside] = f0.value_bar(q + f0.chart.c_of_k(k) * t, k)
    return out
