"""Velocity moments, the normalized potential, and its time derivative.

The density and current integrate the solution over the exact velocity
support |v| <= sqrt(2 (1/c_s - Phi(x))) with Gauss-Legendre quadrature
on a node set bound to one spatial grid.  In action-angle variables the
transport is a rigid rotation, fbar(t, Q, K) = fbar0(Q + c(K) t, K), so
the nodes (x_i, v_ij) are pulled back through the chart once, when the
node set is built.

The Gauss nodes come in mirror pairs +-v, and the chart maps a mirror
pair to Q(x, -v) = -Q(x, v), K(x, -v) = K(x, v) (the angle chi is an
atan2 odd in v, and Q(chi) is odd).  So only the v >= 0 half is pulled
back, each node carrying the weight of its mirror too (2w; w for the
centre node v = 0 of an odd node count, its own mirror).  For the data
B(K) (1 + alpha sin(mQ)) transported to time t, sin(a + b) + sin(a - b)
= 2 sin(a) cos(b) and sin(a + b) - sin(a - b) = 2 cos(a) sin(b) give the
mirror-pair sums

    f(t, x, v) + f(t, x, -v) = 2 B (1 + alpha cos(mQ) sin(m c t)),
    v f(t, x, v) - v f(t, x, -v) = 2 v B alpha sin(mQ) cos(m c t),

with Q, c = c(K) and B = B(K) at (x, v).  At the centre node Q is 0 or
pi, so sin(mQ) = 0 and f(t, x, 0) = B (1 + alpha cos(mQ) sin(m c t)).
The node set therefore caches the v_max w B-weighted factors of cos(mQ)
and v sin(mQ) and the phase rates r = m c(K); with z = exp(i r t) the
density reads Im z and the current Re z.

The rates lie in one narrow band [r0 - h, r0 + h], and with u = (r - r0)/h
the Jacobi-Anger expansion (DLMF 10.12.3) gives

    exp(i r t) = exp(i r0 t) sum_k a_k(h t) T_k(u),  a_k = i^k eps_k J_k,

eps_0 = 1 and eps_k = 2 after.  As |J_k(z)| <= (z/2)^k / k!, the first P
terms reach round-off, P the fewest with (z/2)^P / P! < 2^-53 at
z = h max|t|.  A call with more than P times builds the Chebyshev moments
M_k, the row sums of amp T_k(u), once, then costs a P-term sum per time
and row, and rounds the phase r0 t once per time, not once per node: that
matters, as sup|phi_t| is about 1e-5 of the node amplitudes.  A call with
at most P times takes one sin (density) or cos (current) per half node
and time.

The potential solves -phi'' = rho with phi(0) = phi'(0) = 0; its time
derivative is computed both by the reconstruction formula

    phi_t(x') = int_0^{x'} (j(y) - j(0)) dy

and by a centered time difference of phi, giving two independent routes
whose difference converges at O(dt**2).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .potential import PotentialParams, invert_phi, phi as potential_phi
from .transport import InitialData, pull_back

__all__ = ["spatial_grid", "MomentCalculator", "cumulative_from_zero"]


def spatial_grid(params: PotentialParams, c_s: float, n: int = 201) -> np.ndarray:
    """Uniform symmetric grid on [-x_max, x_max] with x_max = Phi^{-1}(1/c_s).

    The node count must be odd, so that x = 0 is a grid node.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("grid needs an odd number of nodes, at least 3")
    x_max = float(invert_phi(params, 1.0 / c_s))
    return np.linspace(-x_max, x_max, n)


def _simpson_panels(dx21, dx32, f1, f2, f3):
    """Integral of the parabola through the values f1, f2, f3 at three nodes
    spaced dx21, dx32 apart, over the dx21-wide interval between the first two."""
    x31 = dx21 + dx32
    x21_x31 = dx21 / x31
    x21_x32 = dx21 / dx32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return dx21 / 6 * (coeff1 * f1 + coeff2 * f2 + coeff3 * f3)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_i} y dx along the last axis, 0 at x_0.

    SciPy's ``cumulative_simpson(y, x=x, initial=0)`` operation for
    operation, so the two agree bit for bit: interval i takes the
    parabola through nodes i, i+1, i+2 when i is even and through
    i-1, i, i+1 when i is odd (the last interval always the latter).
    Two nodes fall back to the trapezoid.
    """
    dx = np.diff(x)
    if x.size < 3:
        pieces = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        mid = y[..., 1:-1]
        ahead = _simpson_panels(dx[:-1], dx[1:], y[..., :-2], mid, y[..., 2:])
        behind = _simpson_panels(dx[1:], dx[:-1], y[..., 2:], mid, y[..., :-2])
        pieces = np.empty(y.shape[:-1] + dx.shape)
        pieces[..., :-1:2] = ahead[..., ::2]
        pieces[..., 1::2] = behind[..., ::2]
        pieces[..., -1] = behind[..., -1]
    out = np.zeros(y.shape)
    # Adding SciPy's initial value 0 turns a -0.0 into 0.0, as it does there.
    out[..., 1:] = np.cumsum(pieces, axis=-1) + 0.0
    return out


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
    out[..., i0:] = _cumulative_simpson(y[..., i0:], x[i0:])
    # int_0^{x'} y dx = -int_0^{-x'} y(-u) du for x' < 0
    left = _cumulative_simpson(y[..., i0::-1], -x[i0::-1])
    out[..., : i0 + 1] = -left[..., ::-1]
    return out


def _order(z: float, cap: int) -> int:
    """The fewest terms P >= 1 with (z/2)^P / P! < 2^-53, a bound on |J_P(z)|, or cap."""
    p = 1
    while p < cap and z > 0 and p * math.log(0.5 * z) - math.lgamma(p + 1) >= -53 * math.log(2):
        p += 1
    return p


class MomentCalculator:
    """Quadrature node set of one spatial grid, pulled back through the chart.

    Parameters
    ----------
    f0 : the initial data, which fixes the potential, the support and the
        chart; ``f0.chart`` must cover the support annulus, or
        construction raises :class:`ChartRangeError`.
    x : the spatial grid.  The cumulative integrals (``potential_of``,
        ``phi_t_*``) need a symmetric grid with x = 0 at its central node;
        ``density`` and ``current`` take any points.
    n_quad : number of Gauss-Legendre velocity nodes (>= 64).

    Every moment method takes a scalar time, giving one value per grid
    node, or a 1-D array of times, giving one row per time.
    ``support_nodes`` counts the half nodes inside the support.
    """

    def __init__(self, f0: InitialData, x, n_quad: int = 128):
        if n_quad < 64:
            raise ValueError("n_quad must be >= 64")
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        room = f0.h_max - np.asarray(potential_phi(f0.params, self.x))
        self.v_max = np.sqrt(np.clip(2.0 * room, 0.0, None))
        nodes, weights = leggauss(n_quad)
        half = n_quad // 2
        w = 2.0 * weights[half:]
        if n_quad % 2:
            w[0] = weights[half]
        v = self.v_max[:, None] * nodes[half:]
        inside, q, k = pull_back(f0, self.x[:, None], v)
        weight = (self.v_max[:, None] * w)[inside] * f0.bump(k)
        self._rate = f0.m * f0.chart.c_of_k(k)
        self.support_nodes = self._rate.size
        lo, hi = (self._rate.min(), self._rate.max()) if self._rate.size else (0.0, 0.0)
        self._r0, self._h = 0.5 * (hi + lo), 0.5 * (hi - lo)
        self._rho_amp = f0.alpha * weight * np.cos(f0.m * q)
        self._j_amp = f0.alpha * weight * v[inside] * np.sin(f0.m * q)
        # The support nodes are stored row by row: one segment per grid
        # node that has any.
        counts = inside.sum(axis=1)
        self._rows = np.flatnonzero(counts)
        self._starts = (np.cumsum(counts) - counts)[self._rows]
        self._rho_mean = self._row_sums(weight)

    def _row_sums(self, vals: np.ndarray) -> np.ndarray:
        """Sum support-node values (last axis) into their grid nodes."""
        out = np.zeros(vals.shape[:-1] + (self.x.size,))
        if self._rows.size:
            out[..., self._rows] = np.add.reduceat(vals, self._starts, axis=-1)
        return out

    def _integrate(self, t, amp: np.ndarray, part: str) -> np.ndarray:
        """Row sums of amp * Re (``part="real"``) or Im exp(i m c t) at each time."""
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        order = _order(self._h * np.max(np.abs(flat), initial=0.0), flat.size)
        if flat.size <= order:
            trig = np.cos if part == "real" else np.sin
            # Scattering each time's row sums to the grid at once, not time
            # by time, keeps 0.13 MiB off validate's peak RSS.
            sums = np.empty((flat.size, self._starts.size))
            row = np.empty(self._rate.size)
            for i, ti in enumerate(flat):
                trig(np.multiply(ti, self._rate, out=row), out=row)
                row *= amp
                np.add.reduceat(row, self._starts, out=sums[i])
        else:
            sums = self._jacobi_anger(flat, amp, part, order)
        out = np.zeros((flat.size, self.x.size))
        out[:, self._rows] = sums
        return out.reshape(times.shape + (self.x.size,))

    def _jacobi_anger(self, flat: np.ndarray, amp: np.ndarray, part: str, order: int) -> np.ndarray:
        """Re or Im of exp(i r0 t) sum_k a_k(h t) M_k, k < order, per time and row."""
        # T_k(u) by T_{k+1} = 2u T_k - T_{k-1}, started from T_{-1} = T_1 = u.
        u = (self._rate - self._r0) / self._h if order > 1 else 0.0
        moments = np.empty((order, self._starts.size))
        prev, cur = amp * u, amp
        for k in range(order):
            np.add.reduceat(cur, self._starts, out=moments[k])
            prev, cur = cur, 2.0 * u * cur - prev
        # a_k(z) = i^k eps_k J_k(z), the Chebyshev coefficients of exp(i z u),
        # from the DFT of exp(i z cos theta) on 2 order + 2 angles: the
        # aliased terms are J_k with k > order + 2, below the truncation.
        n = 2 * order + 2
        samples = np.exp(1j * (self._h * flat)[:, None] * np.cos(2.0 * np.pi / n * np.arange(n)))
        coeffs = np.fft.fft(samples, axis=1)[:, :order] / n
        coeffs[:, 1:] *= 2.0
        # a_k is real for even k and imaginary for odd k, so the sum splits
        # into two real products; the DFT's rounding in the other part drops.
        even = np.einsum("tk,kr->tr", coeffs[:, 0::2].real, moments[0::2])
        odd = np.einsum("tk,kr->tr", coeffs[:, 1::2].imag, moments[1::2])
        # r0 t in extended precision, where the platform has it.
        phase = np.longdouble(self._r0) * flat
        cos, sin = np.cos(phase).astype(float)[:, None], np.sin(phase).astype(float)[:, None]
        return cos * even - sin * odd if part == "real" else sin * even + cos * odd

    def density(self, t) -> np.ndarray:
        """rho(t, x) = int f dv over the exact support interval."""
        return self._rho_mean + self._integrate(t, self._rho_amp, "imag")

    def current(self, t) -> np.ndarray:
        """j(t, x) = int v f dv over the exact support interval."""
        return self._integrate(t, self._j_amp, "real")

    def potential_of(self, rho: np.ndarray) -> np.ndarray:
        """Potential of a density, value and slope pinned to zero at x = 0."""
        return -cumulative_from_zero(cumulative_from_zero(rho, self.x), self.x)

    def phi_t_of(self, j: np.ndarray) -> np.ndarray:
        """phi_t of a current by the reconstruction formula."""
        return cumulative_from_zero(j - j[..., self.x.size // 2, None], self.x)

    def phi_t_reconstruct(self, t) -> np.ndarray:
        """phi_t on the grid from the current-reconstruction formula."""
        return self.phi_t_of(self.current(t))

    def phi_t_fd(self, t: float, dt: float) -> np.ndarray:
        """Centered time difference of phi; independent phi_t route."""
        if not dt > 0:
            raise ValueError("dt must be > 0")
        ahead, behind = self.potential_of(self.density(np.array([t + dt, t - dt])))
        return (ahead - behind) / (2.0 * dt)
