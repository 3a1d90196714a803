"""Angle-energy and action-angle coordinates for the quartic oscillator.

Two successive charts flatten the characteristic flow:

* ``(x, v) -> (chi, h)``: the orbital angle chi is reconstructed from the
  pair (v / sqrt(2h), sign(x) sqrt(Phi/h)) with a two-argument arctangent,
  and h is the orbit energy.  Along the flow dchi/dt = -a(chi, h) with
  the angular rate ``a = |Phi'| / sqrt(2 Phi) = (1 + 2 eps x**2) /
  sqrt(1 + eps x**2)``, which equals 1 identically in the harmonic case.
* ``(chi, h) -> (Q, K)``: chi is reparametrized per energy so that the
  flow becomes rigid rotation, dQ/dt = -c(K), with the orbital frequency
  c fixed by requiring Q to advance by 2*pi per orbit.

The per-energy reparametrization dQ/dchi = c/a is a smooth, even,
2*pi-periodic function of chi, so the chart tabulates its Fourier sine
antiderivative: Q(chi) = chi + sum_k b_k sin(k chi).  That form is odd,
spectrally accurate, exactly 2*pi-equivariant, and pins Q(pi/2) = pi/2
and Q(pi) = pi by symmetry.  Since a depends on chi only through
cos^2(chi), dQ/dchi is pi-periodic and every odd b_k vanishes; the
chart keeps only the modes above a floor, which are even.
Coefficients, c and c' are interpolated across the energy grid by
not-a-knot cubic splines; the inverse map is solved by Newton iteration
on the monotone forward series.

The series is summed by Clenshaw's recurrence (C. W. Clenshaw, Math.
Tables Aids Comput. 9 (1955) 118) in theta = g chi, g the gcd of the kept
modes: with u_{J+1} = u_{J+2} = 0 and b_k = 0 for the modes not kept,

    u_j = b_{gj} + 2 cos(theta) u_{j+1} - u_{j+2},  j = J, ..., 1,
    sum_k b_k sin(k chi) = u_1 sin(theta),

J = max(modes) / g.  That costs one cos and one sin per point and a
multiply and two adds per mode, where the per-mode sum takes one sin per mode.
Points are summed a block at a time, so no (points x modes) array
outlives its block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import rfft

from .potential import (
    PotentialParams,
    hamiltonian,
    invert_phi,
    invert_phi_squared,
    phi,
)

__all__ = [
    "OrbitChart",
    "ChartError",
    "ChartRangeError",
    "to_angle_energy",
    "from_angle_energy",
    "rate_a",
    "compute_c",
    "compute_c_prime",
    "build_chart",
    "chart_range_for_support",
    "to_action_angle",
    "from_action_angle",
]

# Fourier modes below this magnitude (max over the energy grid) are
# dropped from the chart.
_MODE_FLOOR = 1e-15
# Largest magnitude the last kept mode may have.  A chart whose modes do
# not fall below _MODE_FLOOR by the Nyquist mode is truncated there, and
# its last mode estimates the dropped tail.  Over eps in [0.1, 100] and
# c_s in [0.02, 0.9] the cross-solver gap |f_aa - f_char| (t = 1, 10) was
# at most 31x that mode (eps = 100, c_s = 0.1, n_chi = 512: last mode
# 1.4e-5, gap 4.5e-4; at n_chi = 2048: 4.1e-10 and 1.9e-6), so this floor
# keeps the truncation's share of the gap below its 1e-4 tolerance.
_TAIL_FLOOR = 1e-6
# Equispaced angle nodes of the orbit averages that give c and c'.
_ORBIT_NODES = 256
# The default chart's energy range extends the support annulus by this
# fraction at both ends.
_CHART_MARGIN = 0.05
# chi_from_q's Newton iteration stops once every residual is below
# _NEWTON_TOL, and fails after _NEWTON_STEPS steps.
_NEWTON_TOL = 1e-13
_NEWTON_STEPS = 40


class ChartError(RuntimeError):
    """Internal consistency failure while building or using a chart."""


class ChartRangeError(ValueError):
    """Energy outside the tabulated chart range."""


# Query points per block in ``_Spline.__call__`` and ``OrbitChart.q_from_chi``:
# bounds the gathered coefficients (4 x rows x m) and the recurrence's
# arrays however many points are evaluated, and keeps them in cache.  On a
# 2-vCPU Xeon the 801 x 512 and 1601 x 1024 node sets build in 129 and
# 530 ms at 2048, against 150-195 and 581-734 ms at 512-1024 and 133-167
# and 531-621 ms at 4096-16384; see studies/pullback_block.py.
_SPLINE_ROWS = 2048


class _Spline:
    """Not-a-knot cubic spline through (x_i, y_i), along y's first axis.

    The arithmetic is SciPy's ``CubicSpline`` operation for operation:
    the tridiagonal system for the node slopes, its elimination without
    pivoting (LAPACK ``gtsv`` pivots nowhere on this matrix), the Hermite
    coefficients, and the power-sum evaluation of ``PPoly``.  So the two
    give bit-identical values, which the chart's golden outputs rely on.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n = x.size
        if n < 4:
            raise ValueError("a not-a-knot spline needs at least 4 nodes")
        dx = np.diff(x)
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr

        # The node slopes s solve the tridiagonal system whose row i is
        # lower[i-1] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]; the
        # array s holds rhs and is solved in place.
        diag = np.empty(n)
        upper = np.empty(n - 1)
        lower = np.empty(n - 1)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        s = np.empty_like(y)
        s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        # Not-a-knot: the third derivative is continuous at x[1] and x[-2].
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        s[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        diag[-1], lower[-1] = dx[-2], d
        s[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d

        for i in range(n - 1):
            fact = lower[i] / diag[i]
            diag[i + 1] = diag[i + 1] - fact * upper[i]
            s[i + 1] = s[i + 1] - fact * s[i]
        s[-1] = s[-1] / diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]

        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.x = x
        # Interval-i coefficients of d**3, d**2, d and 1, one table each.
        self.coeffs = (t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        flat = xq.reshape(-1)
        tail = self.coeffs[0].shape[1:]
        out = np.empty(flat.shape + tail)
        for lo in range(0, flat.size, _SPLINE_ROWS):
            pts = flat[lo : lo + _SPLINE_ROWS]
            # Interval i has x[i] <= pt < x[i + 1]; the end intervals extend
            # outward, and x[-1] itself falls in the last.
            i = np.searchsorted(self.x[1:-1], pts, side="right")
            d = (pts - self.x[i]).reshape(pts.shape + (1,) * len(tail))
            dd = d * d
            c3, c2, c1, c0 = (np.take(c, i, axis=0) for c in self.coeffs)
            # PPoly's power sum, not Horner: ((c0 + c1 d) + c2 d**2) + c3 d**3,
            # in place on the gathered copies.
            res = out[lo : lo + pts.size]
            np.multiply(c1, d, out=res)
            res += c0
            c2 *= dd
            res += c2
            c3 *= dd * d
            res += c3
        return out.reshape(xq.shape + tail)


def to_angle_energy(params: PotentialParams, x, v):
    """Map phase points to (chi, h); rejects the elliptic fixed point.

    x > 0 maps into (-pi/2, pi/2) and x < 0 into the complementary arc,
    so the right turning point sits at chi = 0 and the left at chi = pi.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = hamiltonian(params, x, v)
    if np.any(h <= 0):
        raise ValueError("the fixed point (0, 0) has no angle coordinate")
    sin_part = v / np.sqrt(2.0 * h)
    cos_part = np.sign(x) * np.sqrt(phi(params, x) / h)
    return np.arctan2(sin_part, cos_part), h


def from_angle_energy(params: PotentialParams, chi, h):
    """Inverse chart: (chi, h) -> (x, v) for h > 0."""
    chi = np.asarray(chi, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValueError("energy must be > 0")
    c = np.cos(chi)
    v = np.sqrt(2.0 * h) * np.sin(chi)
    return np.sign(c) * invert_phi(params, h * c * c), v


def rate_a(params: PotentialParams, chi, h):
    """Angular speed |dchi/dt| = (1 + 2 eps x**2) / sqrt(1 + eps x**2).

    Evaluated at x = |x|(chi, h) through x**2 = Phi^{-1}(h cos^2 chi)**2,
    which keeps the removable point x = 0 exact.  Equals 1 identically
    for eps = 0 and is >= 1 everywhere.
    """
    chi = np.asarray(chi, dtype=float)
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValueError("energy must be > 0")
    cos2 = np.cos(chi) ** 2
    xsq = invert_phi_squared(params, h * cos2)
    eps = params.epsilon
    return (1.0 + 2.0 * eps * xsq) / np.sqrt(1.0 + eps * xsq)


def _angle_nodes(n_quad: int):
    return np.arange(n_quad) * (2.0 * np.pi / n_quad)


def compute_c(params: PotentialParams, h, n_quad: int = _ORBIT_NODES):
    """Orbital frequency c(h) = 2*pi / closed-orbit integral of 1/a.

    The integral uses the periodic trapezoid rule on equispaced angles,
    spectrally accurate for this smooth periodic integrand.
    """
    if n_quad < 16:
        raise ValueError("n_quad must be >= 16")
    h = np.asarray(h, dtype=float)
    inv_a = 1.0 / rate_a(params, _angle_nodes(n_quad), h[..., None])
    return 1.0 / inv_a.mean(axis=-1)


def _c_prime_integrand(params: PotentialParams, chi, h):
    # d/dh of 1/a at fixed chi: (d/dx)(1/a) * dx/dh with
    # dx/dh = cos^2(chi) / Phi'(x); the 1/x factors cancel, leaving a
    # sign-definite integrand that is smooth through x = 0.
    eps = params.epsilon
    cos2 = np.cos(chi) ** 2
    xsq = invert_phi_squared(params, h * cos2)
    num = 3.0 * eps + 2.0 * eps * eps * xsq
    den = np.sqrt(1.0 + eps * xsq) * (1.0 + 2.0 * eps * xsq) ** 3
    return cos2 * num / den


def compute_c_prime(params: PotentialParams, h):
    """Frequency derivative c'(h) from the analytic integrand.

    c' = c**2 * <cos^2(chi) (3 eps + 2 eps**2 x**2) /
    (sqrt(1 + eps x**2) (1 + 2 eps x**2)**3)>, the periodic-trapezoid
    average over the orbit; strictly positive for eps > 0 and zero in
    the isochronous case.
    """
    h = np.asarray(h, dtype=float)
    g = _c_prime_integrand(params, _angle_nodes(_ORBIT_NODES), h[..., None])
    return compute_c(params, h) ** 2 * g.mean(axis=-1)


def chart_range_for_support(c_s: float):
    """Default chart energy range: the support annulus plus a margin."""
    if not 0 < c_s < 1:
        raise ValueError("c_s must lie in (0, 1)")
    return c_s * (1.0 - _CHART_MARGIN), (1.0 + _CHART_MARGIN) / c_s


@dataclass(frozen=True)
class OrbitChart:
    """Precomputed per-energy tables for the action-angle chart.

    ``sine_coeffs[i, j]`` holds the coefficient b_k, k = ``modes[j]``, of
    the node-i reparametrization Q(chi) = chi + sum_k b_k sin(k chi); the
    modes not listed are below the chart's floor, every mode at eps = 0,
    where the table is n_k x 0 and Q = chi.  ``delta`` is the
    measured lower bound of c' over the grid.
    """

    params: PotentialParams
    k_grid: np.ndarray
    c: np.ndarray
    c_prime: np.ndarray
    sine_coeffs: np.ndarray
    modes: np.ndarray
    delta: float
    _c_spline: _Spline = field(repr=False)
    _cp_spline: _Spline = field(repr=False)
    _b_spline: _Spline = field(repr=False)

    @property
    def k_min(self) -> float:
        return float(self.k_grid[0])

    @property
    def k_max(self) -> float:
        return float(self.k_grid[-1])

    def check_range(self, k) -> None:
        k = np.asarray(k, dtype=float)
        if np.any(k < self.k_min) or np.any(k > self.k_max):
            raise ChartRangeError(
                f"energy outside chart range [{self.k_min}, {self.k_max}]"
            )

    def c_of_k(self, k):
        """Orbital frequency at energy k (cubic interpolation)."""
        self.check_range(k)
        return self._c_spline(k)

    def c_prime_of_k(self, k):
        """Frequency derivative at energy k (cubic interpolation)."""
        self.check_range(k)
        return self._cp_spline(k)

    def _sine_sum(self, chi: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum_k b_k sin(k chi) by the module's Clenshaw recurrence; b holds
        each point's coefficients on its last axis; 0 on a chart with no modes."""
        if not self.modes.size:
            return np.zeros_like(chi)
        g = int(np.gcd.reduce(self.modes))
        cols = np.full(int(self.modes[-1]) // g, -1)
        cols[self.modes // g - 1] = np.arange(self.modes.size)
        theta = g * chi
        two_cos = 2.0 * np.cos(theta)
        u1, u2, u = np.zeros_like(theta), np.zeros_like(theta), np.empty_like(theta)
        for col in cols[::-1]:
            np.multiply(two_cos, u1, out=u)
            u -= u2
            if col >= 0:
                u += b[..., col]
            u1, u2, u = u, u1, u2
        u1 *= np.sin(theta)
        return u1

    def q_from_chi(self, chi, k):
        """Forward reparametrization Q(chi; k), odd and 2*pi-equivariant,
        evaluated ``_SPLINE_ROWS`` points at a time."""
        self.check_range(k)
        chi = np.asarray(chi, dtype=float)
        k = np.asarray(k, dtype=float)
        chi_b, k_b = np.broadcast_arrays(chi, k)
        chi_f, k_f = chi_b.reshape(-1), k_b.reshape(-1)
        q = np.empty(chi_f.shape)
        for lo in range(0, q.size, _SPLINE_ROWS):
            block = slice(lo, lo + _SPLINE_ROWS)
            q[block] = self._sine_sum(chi_f[block], self._b_spline(k_f[block]))
            q[block] += chi_f[block]
        return q.reshape(chi_b.shape)

    def chi_from_q(self, q, k):
        """Inverse reparametrization, by Newton on the monotone series.

        The residual sums the series as :meth:`q_from_chi` does; the
        slope, which only steers the iteration, is summed mode by mode.
        """
        self.check_range(k)
        q = np.asarray(q, dtype=float)
        k = np.asarray(k, dtype=float)
        q_b, k_b = np.broadcast_arrays(q, k)
        b = self._b_spline(k_b)
        kb = self.modes * b
        chi = np.array(q_b, dtype=float, copy=True)
        for _ in range(_NEWTON_STEPS):
            resid = chi + self._sine_sum(chi, b) - q_b
            slope = 1.0 + np.sum(np.cos(chi[..., None] * self.modes) * kb, axis=-1)
            chi = chi - resid / slope
            if np.max(np.abs(resid)) < _NEWTON_TOL:
                break
        else:
            raise ChartError("Newton inversion of the angle map did not converge")
        return chi


def build_chart(
    params: PotentialParams,
    k_min: float,
    k_max: float,
    n_k: int = 64,
    n_chi: int = 512,
) -> OrbitChart:
    """Tabulate c, c' and the angle reparametrization on an energy grid.

    For each grid energy the smooth periodic weight dQ/dchi = c/a is
    sampled on n_chi equispaced angles; its Fourier antiderivative gives
    Q(chi) = chi + sum b_k sin(k chi).  The tables must be finite,
    dQ/dchi > 0 is verified at every grid energy, and the last kept mode
    must lie below a floor (1e-6), before the chart is returned, or
    :class:`ChartError` is raised.
    """
    if not 0 < k_min < k_max:
        raise ValueError("require 0 < k_min < k_max")
    if n_k < 4:
        raise ValueError("n_k must be >= 4")
    if n_chi < 8 or n_chi % 2:
        raise ValueError("n_chi must be an even integer >= 8")

    k_grid = np.linspace(k_min, k_max, n_k)
    chi_nodes = _angle_nodes(n_chi)
    inv_a = 1.0 / rate_a(params, chi_nodes, k_grid[:, None])
    mean_inv = inv_a.mean(axis=1)
    c = 1.0 / mean_inv
    c_prime = c**2 * _c_prime_integrand(params, chi_nodes, k_grid[:, None]).mean(axis=1)

    # Fourier antiderivative of w = (1/a) / <1/a>, whose mean is 1 by
    # construction.  w is even in chi, so the rfft coefficients are real.
    w = inv_a / mean_inv[:, None]
    spectrum = rfft(w, axis=1) / n_chi
    modes = np.arange(1, n_chi // 2 + 1)
    factor = np.full(modes.shape, 2.0)
    factor[-1] = 1.0  # Nyquist mode appears once
    b = factor * spectrum[:, 1:].real / modes
    # NaN fails every comparison below, so an overflowed table would pass
    # the mode floor, monotonicity and tail checks unseen.
    if not all(np.isfinite(a).all() for a in (k_grid, c, c_prime, b)):
        raise ChartError("chart tables are not finite: the energy range or the potential overflows")

    keep = np.max(np.abs(b), axis=0) > _MODE_FLOOR
    modes, b = modes[keep], b[:, keep]

    # Monotonicity: dQ/dchi > 0 on a fine angle grid at every node.  The
    # slope is even and 2*pi-periodic in chi, so [0, pi] covers it.
    n_half = min(513, max(65, n_chi // 2 + 1))
    if n_half % 2 == 0:
        n_half += 1
    fine = np.linspace(0.0, np.pi, 4 * n_half)
    slope = 1.0 + np.cos(fine[:, None] * modes) @ (modes * b).T
    if np.any(slope <= 0):
        raise ChartError("tabulated angle map is not monotone")
    tail = float(np.max(np.abs(b[:, -1:]), initial=0.0))
    if tail > _TAIL_FLOOR:
        raise ChartError(
            f"angle map truncated: last kept mode {tail:.1e} > {_TAIL_FLOOR:.0e}; raise n_chi"
        )

    return OrbitChart(
        params=params,
        k_grid=k_grid,
        c=c,
        c_prime=c_prime,
        sine_coeffs=b,
        modes=modes,
        delta=float(c_prime.min()),
        _c_spline=_Spline(k_grid, c),
        _cp_spline=_Spline(k_grid, c_prime),
        _b_spline=_Spline(k_grid, b),
    )


def to_action_angle(chart: OrbitChart, x, v):
    """Full chart (x, v) -> (Q, K); energy must lie in the chart range."""
    chi, h = to_angle_energy(chart.params, x, v)
    chart.check_range(h)
    return chart.q_from_chi(chi, h), h


def from_action_angle(chart: OrbitChart, q, k):
    """Inverse chart (Q, K) -> (x, v)."""
    chart.check_range(k)
    chi = chart.chi_from_q(q, k)
    return from_angle_energy(chart.params, chi, k)
