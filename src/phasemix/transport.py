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

from .action_angle import OrbitChart, half_angle_sin_cos, to_angle_energy
from .flow import flow_map
from .potential import PotentialParams

__all__ = [
    "InitialData",
    "solution_bar",
    "evaluate_f_characteristic",
    "evaluate_f_actionangle",
    "pull_back",
]


@dataclass(frozen=True)
class InitialData:
    """Smooth data supported on the energy annulus c_s <= H <= 1/c_s.

    f0(x, v) = B(H) * (1 + alpha * sin(m * Q)) with B the standard bump
    exp(-1/(1 - s**2)) in the scaled energy s, vanishing to all orders
    at the annulus edge; nonnegative because alpha < 1.  ``chart`` must
    cover the annulus.
    """

    c_s: float
    alpha: float
    m: int
    chart: OrbitChart

    def __post_init__(self) -> None:
        if not 0 < self.c_s < 1:
            raise ValueError("c_s must lie in (0, 1)")
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise ValueError("m must be an integer >= 1")
        if self.chart.k_min > self.h_min or self.chart.k_max < self.h_max:
            raise ValueError("chart energy range does not cover the support annulus")

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
        sin = half_angle_sin_cos((0.5 * self.m) * np.asarray(q, dtype=float))[0]
        return self.bump(k) * (1.0 + self.alpha * sin)


def solution_bar(f0: InitialData, t: float, q, k):
    """Solution in action-angle coordinates: fbar0(Q + c(K) t, K)."""
    return f0.value_bar(np.asarray(q, dtype=float) + f0.chart.c_of_k(k) * t, k)


def evaluate_f_characteristic(f0: InitialData, t: float, x, v):
    """Exact solution via backward characteristics: f0(flow(-t)(x, v))."""
    x0, v0 = flow_map(f0.params, x, v, -t)
    return evaluate_f_actionangle(f0, 0.0, x0, v0)


def pull_back(f0: InitialData, x, v):
    """Chart coordinates of the phase points inside the support annulus.

    Returns ``(inside, q, k)``: the mask of the broadcast points with
    h_min < H < h_max, and the angle Q and energy K in ``f0.chart`` of
    those points in row-major order.  One :func:`to_angle_energy` pass
    gives every point's angle and energy, so a grid given as a column of x
    and rows of v evaluates Phi per row and H once per point.  Points
    outside the annulus never touch the chart, which covers the annulus.
    """
    chi, h = (np.asarray(a) for a in to_angle_energy(f0.params, x, v))
    inside = (h > f0.h_min) & (h < f0.h_max)
    k = h[inside]
    return inside, f0.chart.q_from_chi(chi[inside], k), k


def evaluate_f_actionangle(f0: InitialData, t: float, x, v):
    """Exact solution via the chart: :func:`solution_bar` at the pulled-back
    points, zero off the support annulus."""
    inside, q, k = pull_back(f0, x, v)
    out = np.zeros(inside.shape)
    if k.size:
        out[inside] = solution_bar(f0, t, q, k)
    return out
