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
and Q(pi) = pi by symmetry.  The rate a, and with it 1/a, depends on chi
only through cos^2(chi): it is even and pi-periodic.  The chart therefore
evaluates 1/a on the quarter orbit chi_j = 2 pi j / n_chi, j = 0, ...,
n_chi // 4, and mirrors it (j <-> n_chi/2 - j) onto the half period
[0, pi).  c is the reciprocal of its mean over the half period, and
one rfft of length n_chi/2 gives the even modes b_2j; the odd b_k are
exactly absent (the periodic trapezoid rule on the symmetry-reduced
period: L. N. Trefethen and J. A. C. Weideman, SIAM Rev. 56 (2014) 385).
The chart keeps the even modes 2, 4, ..., 2J, cut after the last one
above a floor, so Q(pi - chi) = pi - Q(chi) holds for every chart.
One not-a-knot cubic spline through the stacked columns c, b_k
interpolates the chart across the energy grid; c(K) and the series read
its coefficients, held once.

c and c' also have a closed form (``exact_frequency``).  The orbit of
energy h is x = x_max cn(sqrt(s) t, k), with s = sqrt(1 + 8 eps h) and
k**2 = (s - 1) / (2 s), so its period is 4 K(k) / sqrt(s) and
c = sqrt(s) AGM(1, k'), where k' = sqrt(1 - k**2) and the
arithmetic-geometric mean gives K and E (DLMF 19.8.1, 19.8.6).  The chart
is refused where its c errs from it by more than 1e-10 at a grid energy.
The chart holds no c' table: c' is ``exact_frequency(params, h)[1]``.
The same AGM gives the inverse map (Q, K) -> (x, v) with no chart
(``from_action_angle``): Q = pi u / (2 K(k)) on the orbit above, and the
descending Landen transformation takes cn, sn and dn at u from the AGM's
a_n and c_n (DLMF 22.20(ii)).

The series is summed a block of points at a time, grouped by energy
interval, since the spline makes each b_{2j}(K) a cubic in d = K - K_i on
interval i.  With theta = 2 chi, the sines come from the three-term
recurrence

    sin((j + 1) theta) = 2 cos(theta) sin(j theta) - sin((j - 1) theta),

a multiply and a subtract per mode, from sin(theta) and cos(theta), which
the half-angle formulas give from one tan(chi) per point
(``half_angle_sin_cos``).  For the points of interval i, one product of its
(4 x J) cubic coefficients with their (J x n_i) sines gives the four sums
S_p = sum_j C_p[i, j] sin(2j chi), C_p the coefficients of d**p, and
Q = chi + ((S_3 d + S_2) d + S_1) d + S_0.  No (points x modes) array of
b_{2j}(K) is gathered.
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
    "rate_a",
    "exact_frequency",
    "compute_c",
    "build_chart",
    "chart_range_for_support",
    "from_action_angle",
    "half_angle_sin_cos",
]

# The chart's series ends at its last mode above this magnitude (max over
# the energy grid).
_MODE_FLOOR = 1e-15
# Largest magnitude the last kept mode may have.  A chart whose modes do
# not fall below _MODE_FLOOR by the Nyquist mode is truncated there, and
# its last mode estimates the dropped tail.  Over eps in [0.1, 100] and
# c_s in [0.02, 0.9] the cross-solver gap |f_aa - f_char| (t = 1, 10) was
# at most 31x that mode (eps = 100, c_s = 0.1, n_chi = 512: last mode
# 1.4e-5, gap 4.5e-4; at n_chi = 2048: 4.1e-10 and 1.9e-6), so this floor
# keeps the truncation's share of the gap below its 1e-4 tolerance.
_TAIL_FLOOR = 1e-6
# Largest relative error of the chart's c against the closed form at a
# grid energy.
_C_ERROR_TOL = 1e-10
# Equispaced angle nodes of compute_c's default rule.
_ORBIT_NODES = 256
# Steps of the arithmetic-geometric mean (``_agm``) after its first, which
# end on a_4 and c_4.  k' >= 1/sqrt(2) at every energy, and from
# AGM(1, 1/sqrt(2)) c_4 = 4.1e-11: a_4 lies within 2 c_5 < 1e-21 of the
# mean, the E/K sum's last term, 2**3 (c_4 / k)**2, is 2.7e-20, and the
# Landen step that from_action_angle drops, asin((c_5 / a_5) sin phi_5) / 2,
# is below 1e-21.
_AGM_STEPS = 3
# The default chart's energy range extends the support annulus by this
# fraction at both ends.
_CHART_MARGIN = 0.05


class ChartError(RuntimeError):
    """Internal consistency failure while building a chart."""


class ChartRangeError(ValueError):
    """Energy outside the tabulated chart range."""


# Points per block of ``OrbitChart.q_from_chi`` and ``OrbitChart.c_of_k``:
# bounds their per-point arrays however many points are evaluated.  On a
# 2-vCPU Xeon the 201 x 128, 801 x 512 and 1601 x 1024 node sets (5,441,
# 87,195 and 348,873 support nodes) build in 1.2, 14.5 and 62 ms at 8192,
# against 1.3, 15.5 and 61 ms at 4096 and 2.4, 31 and 119 ms at 1024, best
# of 5 in the quietest of four runs of studies/pullback_block.py; 16384 is
# as fast but traces 8.7 MiB, not 6.6, at 801 x 512.  q_from_chi takes
# min(_BLOCK_POINTS, _BLOCK_CELLS // J) points at a time, so its table of
# sines stays bounded on a chart with many modes J.
_BLOCK_POINTS = 8192
# Largest angles x modes of one block of the sampled monotonicity check
# (``_require_monotone``), and points x modes of one block of
# ``q_from_chi``: a chart with many modes takes fewer, so each cosine or
# sine table stays under 8 MiB.
_BLOCK_CELLS = 2**20


def half_angle_sin_cos(half, sin=None, cos=None):
    """sin(2 half) and cos(2 half) from one tan, into ``sin`` and ``cos``
    where given (NumPy's ``out``).

    With t = tan(half) and u = 2 / (1 + t**2), sin = t u and cos = u - 1,
    within 4e-16 of libm's.  ``half`` may be ``sin`` itself; a caller with
    the angle a passes a * 0.5, which is exact.  On AVX-512 NumPy vectorizes
    float64 tan, not sin and cos: on a 2-vCPU Xeon both take 4.5-4.8 ns a
    point, against 18-23 ns for each of them.  Signed zeros are kept and NaN
    propagates.
    """
    t = np.tan(half, out=sin)
    u = np.multiply(t, t, out=cos)
    u += 1.0
    u = np.divide(2.0, u, out=cos)
    t *= u
    u -= 1.0
    return t, u


def _spline_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic splines through (x_i, y_ij), one per column j of y.

    Returns ``table[i, :, j]``, column j's coefficients of d**3, d**2, d and
    1 on interval i, d = x - x[i]: SciPy's ``PPoly.c`` with its first two
    axes swapped.  The arithmetic is SciPy's ``CubicSpline`` operation for
    operation: the tridiagonal system for the node slopes, its elimination
    without pivoting (LAPACK ``gtsv`` pivots nowhere on this matrix) and the
    Hermite coefficients, per column.  So each column equals its
    ``CubicSpline`` bit for bit, as golden outputs need.
    """
    n = x.size
    if n < 4:
        raise ValueError("a not-a-knot spline needs at least 4 nodes")
    dx = np.diff(x)
    dxr = dx[:, None]
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
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]), axis=1)


def to_angle_energy(params: PotentialParams, x, v):
    """Map phase points to (chi, h) on their broadcast shape.

    x > 0 maps into (-pi/2, pi/2) and x < 0 into the complementary arc,
    so the right turning point sits at chi = 0 and the left at chi = pi.
    The elliptic fixed point (0, 0), at h = 0, has no angle: chi is NaN
    there.  Phi is evaluated on x as given: per row, not per point, on a
    column of grid rows x against rows of v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = hamiltonian(params, x, v)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_part = v / np.sqrt(2.0 * h)
        cos_part = np.sign(x) * np.sqrt(phi(params, x) / h)
    return np.arctan2(sin_part, cos_part), h


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
    eps = params.epsilon
    xsq = invert_phi_squared(params, h * np.cos(chi) ** 2)
    return (1.0 + 2.0 * eps * xsq) / np.sqrt(1.0 + eps * xsq)


def _angle_nodes(n_quad: int):
    return np.arange(n_quad) * (2.0 * np.pi / n_quad)


def _agm(params: PotentialParams, h):
    """The arithmetic-geometric mean of (1, k') at energies h > 0: s, k, k'
    and the lists of a_n and c_n / k of its steps n = 1, ..., 4.

    s = sqrt(1 + 8 eps h), and k**2 = 4 eps h / (s (s + 1)) and k'**2 =
    (s + 1) / (2 s) are free of cancellation at small eps h, as are the
    c_n / k, from c_1 / k = k / (2 (1 + k')) and c_{n+1} = c_n**2 /
    (4 a_{n+1}).
    """
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValueError("energy must be > 0")
    eps = params.epsilon
    s = np.sqrt(1.0 + 8.0 * eps * h)
    k = np.sqrt(4.0 * eps * h / (s * (s + 1.0)))
    kp = np.sqrt((s + 1.0) / (2.0 * s))
    a, b = [0.5 * (1.0 + kp)], np.sqrt(kp)
    ratio = [k / (2.0 * (1.0 + kp))]
    for _ in range(_AGM_STEPS):
        a.append(0.5 * (a[-1] + b))
        b = np.sqrt(a[-2] * b)
        ratio.append(ratio[-1] * ratio[-1] * k / (4.0 * a[-1]))
    return s, k, kp, a, ratio


def exact_frequency(params: PotentialParams, h):
    """The orbital frequency c(h) and its derivative c'(h) in closed form.

    c = sqrt(s) AGM(1, k') with s = sqrt(1 + 8 eps h), and
    c' = c (2 eps / s**2 - eps r / s**3), r = (E/K - k'**2) / (k k')**2,
    summed as c eps (2 - r / s) / (1 + 8 eps h), which stays finite
    wherever 1 + 8 eps h does.  The AGM's c_n / k (:func:`_agm`) give
    r = (1/2 - sum_{n>=1} 2**(n-1) (c_n / k)**2) / k'**2 free of
    cancellation at small eps h.  Exactly (1, 0) at eps = 0, and c' > 0
    for eps > 0.
    """
    h = np.asarray(h, dtype=float)
    eps = params.epsilon
    s, _, kp, a, ratio = _agm(params, h)
    total = sum(2.0**n * r * r for n, r in enumerate(ratio))
    c = np.sqrt(s) * a[-1]
    r = (0.5 - total) / (kp * kp)
    return c, c * eps * (2.0 - r / s) / (1.0 + 8.0 * eps * h)


def compute_c(params: PotentialParams, h, n_quad: int = _ORBIT_NODES):
    """Orbital frequency c(h) = 2*pi / closed-orbit integral of 1/a.

    The integral uses the periodic trapezoid rule on equispaced angles
    over the full circle, spectrally accurate for this smooth periodic
    integrand; ``build_chart`` reduces it by symmetry, and ``validate``
    holds this full-circle rule to :func:`exact_frequency`.
    """
    if n_quad < 16:
        raise ValueError("n_quad must be >= 16")
    h = np.asarray(h, dtype=float)
    inv_a = 1.0 / rate_a(params, _angle_nodes(n_quad), h[..., None])
    return 1.0 / inv_a.mean(axis=-1)


def chart_range_for_support(c_s: float):
    """Default chart energy range: the support annulus plus a margin."""
    if not 0 < c_s < 1:
        raise ValueError("c_s must lie in (0, 1)")
    return c_s * (1.0 - _CHART_MARGIN), (1.0 + _CHART_MARGIN) / c_s


@dataclass(frozen=True)
class OrbitChart:
    """Precomputed per-energy tables for the action-angle chart.

    ``sine_coeffs[i, j]`` holds the coefficient b_k, k = 2 (j + 1), of the
    node-i reparametrization Q(chi) = chi + sum_k b_k sin(k chi).  The
    columns are the even modes 2, 4, ..., 2J (``modes``, derived from the
    table's width), since the odd ones vanish for an even potential; at
    eps = 0 the table is n_k x 0 and Q = chi.  One spline through the
    stacked columns c, b_k, built from these tables on construction,
    interpolates both in energy, so it never goes stale under ``replace``;
    its coefficients are held once, split between their two readers.
    ``c_error`` is the largest relative error of c at the grid energies
    against the closed form (:func:`exact_frequency`).
    """

    params: PotentialParams
    k_grid: np.ndarray
    c: np.ndarray
    sine_coeffs: np.ndarray
    c_error: float
    _c_table: np.ndarray = field(init=False, repr=False, compare=False)
    _sine_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = _spline_table(self.k_grid, np.column_stack((self.c, self.sine_coeffs)))
        # _c_table[p, i] and _sine_table[i, p, j]: the coefficients of
        # d**(3 - p) on energy interval i of c and of b_{2j}, laid out for
        # c_of_k's gather and q_from_chi's per-interval products.
        object.__setattr__(self, "_c_table", np.ascontiguousarray(table[:, :, 0].T))
        object.__setattr__(self, "_sine_table", np.ascontiguousarray(table[:, :, 1:]))

    @property
    def k_min(self) -> float:
        return float(self.k_grid[0])

    @property
    def k_max(self) -> float:
        return float(self.k_grid[-1])

    @property
    def modes(self) -> np.ndarray:
        """The wavenumbers 2, 4, ..., 2J of the columns of ``sine_coeffs``."""
        return 2 * np.arange(1, self.sine_coeffs.shape[1] + 1)

    @property
    def last_mode(self) -> float:
        """Largest magnitude over the grid of the last kept mode, the
        estimate of the truncated tail; 0 on a chart with no modes."""
        return float(np.max(np.abs(self.sine_coeffs[:, -1:]), initial=0.0))

    def check_range(self, k) -> None:
        k = np.asarray(k, dtype=float)
        if np.any(k < self.k_min) or np.any(k > self.k_max):
            raise ChartRangeError(
                f"energy outside chart range [{self.k_min}, {self.k_max}]"
            )

    def _locate(self, k: np.ndarray):
        """The energy interval i of each 1-D energy and its offset
        d = k - k_grid[i]."""
        # Interval i has k_grid[i] <= k < k_grid[i + 1]; the end intervals
        # extend outward, and k_max itself falls in the last.
        i = np.searchsorted(self.k_grid[1:-1], k, side="right")
        return i, k - self.k_grid[i]

    def c_of_k(self, k):
        """Orbital frequency at energy k (cubic interpolation), a block of
        energies at a time."""
        self.check_range(k)
        k = np.asarray(k, dtype=float)
        k_f = k.reshape(-1)
        out = np.empty(k_f.shape)
        for lo in range(0, k_f.size, _BLOCK_POINTS):
            block = slice(lo, lo + _BLOCK_POINTS)
            i, d = self._locate(k_f[block])
            # Every index is in range; "clip" skips take's bounds check.
            c3, c2, c1, c0 = np.take(self._c_table, i, axis=1, mode="clip")
            # PPoly's power sum, not Horner: ((c0 + c1 d) + c2 d**2) + c3 d**3.
            dd = d * d
            col = out[block]
            np.multiply(c1, d, out=col)
            col += c0
            c2 *= dd
            col += c2
            c3 *= dd * d
            col += c3
        return out.reshape(k.shape)

    def q_from_chi(self, chi, k):
        """Forward reparametrization Q(chi; k), odd and 2*pi-equivariant.

        A block of points at a time, grouped by energy interval: the sines
        sin(2j chi) come from the module's recurrence, and each interval
        present takes one product of its cubic coefficients with its
        points' sines, so no (points x modes) gather is formed.
        """
        self.check_range(k)
        chi_b, k_b = np.broadcast_arrays(np.asarray(chi, dtype=float), np.asarray(k, dtype=float))
        chi_f, k_f = chi_b.reshape(-1), k_b.reshape(-1)
        q = np.empty(chi_f.shape)
        table = self._sine_table
        n_modes = table.shape[2]
        size = min(_BLOCK_POINTS, _BLOCK_CELLS // max(n_modes, 1))
        key = np.min_scalar_type(table.shape[0])
        # Row j of ``sines`` holds sin(2j chi), row 0 the recurrence's sin(0).
        sines = np.zeros((n_modes + 1, min(size, q.size)))
        sums = np.empty((4, sines.shape[1]))
        for lo in range(0, q.size, size):
            block = slice(lo, lo + size)
            i, d = self._locate(k_f[block])
            # A key of at most 16 bits is radix-sorted, in linear time.
            order = np.argsort(i.astype(key), kind="stable")
            d, chi_s = d[order], chi_f[block][order]
            s, sums_s = sines[:, : chi_s.size], sums[:, : chi_s.size]
            if n_modes:
                two_cos = half_angle_sin_cos(chi_s, s[1])[1]
                two_cos *= 2.0
            for j in range(2, n_modes + 1):
                np.multiply(two_cos, s[j - 1], out=s[j])
                s[j] -= s[j - 2]
            # sums_s[c] = sum_j table[i, c, j] sin(2j chi), one product per
            # interval over its points, which the sort made contiguous.
            # A BLAS product, on one thread unless the environment sets
            # OPENBLAS_NUM_THREADS (``phasemix/__init__.py``).
            counts = np.bincount(i)
            start = 0
            for interval in np.flatnonzero(counts).tolist():
                end = start + counts[interval]
                np.matmul(table[interval], s[1:, start:end], out=sums_s[:, start:end])
                start = end
            s3, s2, s1, s0 = sums_s
            q[block][order] = chi_s + (((s3 * d + s2) * d + s1) * d + s0)
        return q.reshape(chi_b.shape)


def _require_monotone(modes: np.ndarray, b: np.ndarray, n_chi: int) -> None:
    """Raise :class:`ChartError` unless dQ/dchi = 1 + sum_k k b_k cos(k chi) > 0
    at every energy, the rows of the sine table ``b``.

    An energy with sum_k k |b_k| < 1 is proven monotone by that bound (at
    every default energy the sum is at most 0.213).  The others are sampled
    on a fine angle grid, a block of angles at a time.  The slope is even
    and, with only even modes, pi-periodic, so it is symmetric about pi/2
    and [0, pi/2] covers it: the first half of 4 n_half angles spaced
    pi / (4 n_half - 1) over [0, pi], whose other half mirrors onto it.
    einsum, not a BLAS product: a one-off threaded BLAS call leaves
    OpenBLAS's other thread spinning after it.
    """
    kb = modes * b
    kb = kb[np.sum(np.abs(kb), axis=1) >= 1.0].T
    if not kb.size:
        return
    n_half = min(513, max(65, n_chi // 2 + 1))
    if n_half % 2 == 0:
        n_half += 1
    fine = np.arange(2 * n_half) * (np.pi / (4 * n_half - 1))
    rows = max(1, _BLOCK_CELLS // modes.size)
    for lo in range(0, fine.size, rows):
        cos = np.cos(fine[lo : lo + rows, None] * modes)
        if np.any(1.0 + np.einsum("rm,mk->rk", cos, kb) <= 0):
            raise ChartError("tabulated angle map is not monotone")


def build_chart(
    params: PotentialParams,
    k_min: float,
    k_max: float,
    n_k: int,
    n_chi: int,
) -> OrbitChart:
    """Tabulate c and the angle reparametrization on an energy grid.

    For each grid energy, 1/a is evaluated on the n_chi // 4 + 1 angles
    2 pi j / n_chi of the quarter orbit [0, pi/2] and mirrored onto the
    half period [0, pi), where it repeats.  c is the reciprocal of its
    mean, and one rfft of length n_chi/2 of the smooth periodic weight
    dQ/dchi = c/a gives the even modes of Q(chi) = chi + sum b_k sin(k chi).
    The tables must be finite, dQ/dchi > 0 must hold at every grid energy,
    proved by the bound sum_k k |b_k| < 1 or else sampled on a fine angle
    grid, the last kept mode must lie below a floor (1e-6), and c must lie
    within 1e-10 relative of the closed form (:func:`exact_frequency`) at
    every grid energy, before the chart is returned, or :class:`ChartError`
    is raised.
    """
    if not 0 < k_min < k_max:
        raise ValueError("require 0 < k_min < k_max")
    if n_k < 4:
        raise ValueError("n_k must be >= 4")
    if n_chi < 8 or n_chi % 2:
        raise ValueError("n_chi must be an even integer >= 8")

    k_grid = np.linspace(k_min, k_max, n_k)
    half, quarter = n_chi // 2, n_chi // 4 + 1
    w = np.empty((n_k, half))
    w[:, :quarter] = 1.0 / rate_a(params, _angle_nodes(n_chi)[:quarter], k_grid[:, None])
    # Angle j of the half period reads quarter-orbit angle min(j, half - j).
    w[:, quarter:] = w[:, half - quarter : 0 : -1]
    mean_inv = w.mean(axis=1)
    c = 1.0 / mean_inv

    # Fourier antiderivative of w = (1/a) / <1/a>, whose mean is 1 by
    # construction.  w is even in chi, so the rfft coefficients are real;
    # its bin j is mode 2j of the full circle.  The half period has a
    # Nyquist bin, which appears once, only when n_chi is divisible by 4.
    w /= mean_inv[:, None]
    spectrum = rfft(w, axis=1) / half
    modes = 2 * np.arange(1, quarter)
    factor = np.full(modes.shape, 2.0)
    if half % 2 == 0:
        factor[-1] = 1.0
    b = factor * spectrum[:, 1:].real / modes
    # NaN fails every comparison below, so an overflowed table would pass
    # the mode floor, monotonicity and tail checks unseen.
    if not all(np.isfinite(table).all() for table in (k_grid, c, b)):
        raise ChartError("chart tables are not finite: the energy range or the potential overflows")

    # The series ends at its last mode above the floor; the copy frees the
    # rest of the spectrum.
    above = np.flatnonzero(np.max(np.abs(b), axis=0) > _MODE_FLOOR)
    b = b[:, : np.max(above, initial=-1) + 1].copy()
    modes = modes[: b.shape[1]]

    _require_monotone(modes, b, n_chi)
    exact = exact_frequency(params, k_grid)[0]
    error = float(np.max(np.abs(c - exact) / exact))
    chart = OrbitChart(params=params, k_grid=k_grid, c=c, sine_coeffs=b, c_error=error)
    if chart.last_mode > _TAIL_FLOOR:
        raise ChartError(
            f"angle map truncated: last kept mode {chart.last_mode:.1e} > {_TAIL_FLOOR:.0e}; "
            "raise n_chi"
        )
    if not error <= _C_ERROR_TOL:  # NaN fails too
        raise ChartError(
            f"frequency quadrature errs by {error:.3e} from the closed form "
            f"> {_C_ERROR_TOL:.0e}; raise n_chi"
        )
    return chart


def from_action_angle(params: PotentialParams, q, k):
    """Inverse chart (Q, K) -> (x, v) in closed form, for K > 0.

    The orbit of energy K is x = A cn(u, k), v = A sqrt(s) sn(u, k) dn(u, k)
    with A = Phi^{-1}(K), and Q = pi u / (2 K(k)) = u AGM(1, k').  The
    descending Landen transformation (DLMF 22.20(ii); Abramowitz and Stegun
    16.4) takes the amplitude phi_0 = am(u, k) from the AGM's four steps
    (:func:`_agm`): phi_4 = 2**4 a_4 u = 16 Q and phi_{n-1} = (phi_n +
    asin((c_n / a_n) sin phi_n)) / 2, so that sn = sin phi_0, cn = cos phi_0
    and dn = sqrt(1 - k**2 sin**2 phi_0).  No iteration and no chart; at
    eps = 0 it is (sqrt(2K) cos Q, sqrt(2K) sin Q).
    """
    q = np.asarray(q, dtype=float)
    s, modulus, _, a, ratio = _agm(params, k)
    phase = 2.0 ** len(a) * q
    for a_n, r_n in zip(a[::-1], ratio[::-1]):
        sin = half_angle_sin_cos(0.5 * phase)[0]
        phase = 0.5 * (phase + np.arcsin(modulus * r_n / a_n * sin))
    sin, cos = half_angle_sin_cos(0.5 * phase)
    amp = invert_phi(params, k)
    return amp * cos, amp * np.sqrt(s) * sin * np.sqrt(1.0 - (modulus * sin) ** 2)
