"""Velocity moments, the normalized potential, and its time derivative.

The density and current integrate the solution over the exact velocity
support |v| <= sqrt(2 (1/c_s - Phi(x))) with Gauss-Legendre quadrature
on a node set bound to one spatial grid.  In action-angle variables the
transport is a rigid rotation, fbar(t, Q, K) = fbar0(Q + c(K) t, K), so
the nodes (x_i, v_ij) are pulled back through the chart once, when the
node set is built: Q, c(K) and the radial factor B(K) are cached for the
nodes inside the support annulus.  Each sample time then costs only
B (1 + alpha sin(m (Q + c t))), a scatter into the node array and the
weighted sum over the velocity nodes, done for a batch of times at once.

The potential solves -phi'' = rho with phi(0) = phi'(0) = 0; its time
derivative is computed both by the reconstruction formula

    phi_t(x') = int_0^{x'} (j(y) - j(0)) dy

and by a centered time difference of phi, giving two independent routes
whose difference converges at O(dt**2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .potential import PotentialParams, invert_phi, phi as potential_phi
from .transport import InitialData, pull_back

__all__ = ["spatial_grid", "MomentSeries", "MomentCalculator", "cumulative_from_zero"]

# Node values held per batch of sample times (times x grid x velocity
# nodes); bounds the scratch memory of a scan whatever its length.
CHUNK_ELEMENTS = 2**18


def spatial_grid(params: PotentialParams, c_s: float, n: int = 201) -> np.ndarray:
    """Uniform symmetric grid on [-x_max, x_max] with x_max = Phi^{-1}(1/c_s).

    The node count is forced odd so that x = 0 is a grid node.
    """
    if n < 3:
        raise ValueError("grid needs at least 3 nodes")
    if n % 2 == 0:
        n += 1
    x_max = float(invert_phi(params, 1.0 / c_s))
    return np.linspace(-x_max, x_max, n)


def cumulative_from_zero(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral int_0^{x_i} y dx on a symmetric grid containing 0.

    Composite Simpson on each half, anchored at the central node; ``y``
    may carry leading batch axes, integrated along its last axis.
    """
    n = x.size
    i0 = n // 2
    if abs(x[i0]) > 1e-12 * (abs(x[-1]) + 1.0):
        raise ValueError("grid must contain x = 0 at its central node")
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[..., i0:] = cumulative_simpson(y[..., i0:], x=x[i0:], initial=0.0)
    # int_0^{x'} y dx = -int_0^{-x'} y(-u) du for x' < 0
    left = cumulative_simpson(y[..., i0::-1], x=-x[i0::-1], initial=0.0)
    out[..., : i0 + 1] = -left[..., ::-1]
    return out


@dataclass
class MomentSeries:
    """Time-indexed moment grids emitted by the evolve pipeline."""

    times: np.ndarray
    x: np.ndarray
    rho: np.ndarray
    j: np.ndarray
    phi: np.ndarray
    phi_t: np.ndarray


class MomentCalculator:
    """Quadrature node set of one spatial grid, pulled back through the chart.

    Parameters
    ----------
    f0 : the initial data, which fixes the potential, the support and the
        chart; ``f0.chart`` must cover the support annulus, or
        construction raises :class:`ChartRangeError`.
    x : the spatial grid.  The cumulative integrals (``phi``,
        ``phi_t_*``, ``series``) need a symmetric grid with x = 0 at its
        central node; ``density`` and ``current`` take any points.
    n_quad : number of Gauss-Legendre velocity nodes (>= 64).

    Every moment method takes a scalar time, giving one value per grid
    node, or a 1-D array of times, giving one row per time.
    """

    def __init__(self, f0: InitialData, x, n_quad: int = 128):
        if n_quad < 64:
            raise ValueError("n_quad must be >= 64")
        self.f0 = f0
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        room = f0.h_max - np.asarray(potential_phi(f0.params, self.x))
        self.v_max = np.sqrt(np.clip(2.0 * room, 0.0, None))
        nodes, self.weights = np.polynomial.legendre.leggauss(n_quad)
        v = self.v_max[:, None] * nodes
        inside, self._q, k = pull_back(f0, self.x[:, None], v)
        self._index = np.flatnonzero(inside)
        self._c = f0.chart.c_of_k(k)
        self._bump = f0.bump(k)
        self._v = v[inside]

    def _integrate(self, t, with_v: bool) -> np.ndarray:
        """v_max * int f v**p dv (p = 0 or 1) at each time, in batches."""
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        out = np.empty((flat.size, self.x.size))
        batch = max(1, CHUNK_ELEMENTS // (self.x.size * self.weights.size))
        # Nodes off the support stay zero; each batch overwrites the rest.
        f = np.zeros((min(batch, flat.size), self.x.size, self.weights.size))
        for lo in range(0, flat.size, batch):
            chunk = flat[lo : lo + batch]
            vals = self._bump * self.f0.modulation(self._q + self._c * chunk[:, None])
            if with_v:
                vals *= self._v
            block = f[: chunk.size]
            block.reshape(chunk.size, -1)[:, self._index] = vals
            out[lo : lo + chunk.size] = self.v_max * (block @ self.weights)
        return out.reshape(times.shape + (self.x.size,))

    def density(self, t) -> np.ndarray:
        """rho(t, x) = int f dv over the exact support interval."""
        return self._integrate(t, with_v=False)

    def current(self, t) -> np.ndarray:
        """j(t, x) = int v f dv over the exact support interval."""
        return self._integrate(t, with_v=True)

    def potential_of(self, rho: np.ndarray) -> np.ndarray:
        """Potential of a density, value and slope pinned to zero at x = 0."""
        return -cumulative_from_zero(cumulative_from_zero(rho, self.x), self.x)

    def phi_t_of(self, j: np.ndarray) -> np.ndarray:
        """phi_t of a current by the reconstruction formula."""
        return cumulative_from_zero(j - j[..., self.x.size // 2, None], self.x)

    def phi_t_reconstruct(self, t) -> np.ndarray:
        """phi_t on the grid from the current-reconstruction formula."""
        return self.phi_t_of(self.current(t))

    def phi(self, t) -> np.ndarray:
        """Potential with value and slope pinned to zero at x = 0."""
        return self.potential_of(self.density(t))

    def phi_t_fd(self, t: float, dt: float) -> np.ndarray:
        """Centered time difference of phi; independent phi_t route."""
        if not dt > 0:
            raise ValueError("dt must be > 0")
        ahead, behind = self.phi(np.array([t + dt, t - dt]))
        return (ahead - behind) / (2.0 * dt)

    def series(self, times) -> MomentSeries:
        """Assemble rho, j, phi, phi_t over a time schedule."""
        times = np.asarray(times, dtype=float)
        rho = self.density(times)
        j = self.current(times)
        return MomentSeries(
            times=times, x=self.x, rho=rho, j=j,
            phi=self.potential_of(rho), phi_t=self.phi_t_of(j),
        )
