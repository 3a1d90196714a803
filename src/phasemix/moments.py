"""Velocity moments, the normalized potential, and its time derivative.

The density and current integrate the solution over the exact velocity
support |v| <= sqrt(2 (1/c_s - Phi(x))) with Gauss-Legendre quadrature
on a node set that builds its own uniform spatial grid of an odd node
count (``spatial_grid``).  In action-angle variables the transport is a
rigid rotation, fbar(t, Q, K) = fbar0(Q + c(K) t, K), so the nodes
(x_i, v_ij) are pulled back through the chart once, when the node set is
built.

The Gauss-Legendre rule (``gauss_legendre``) runs Newton in
theta = arccos x on the three-term recurrence for the roots with x > 0
and mirrors them, in O(n^2) and with no BLAS or LAPACK call; NumPy's
``leggauss`` takes an O(n^3) eigenvalue solve, whose threaded LAPACK
call leaves OpenBLAS's other thread spinning, and its weights err by
1.1e-10 relative at n = 512.  Newton starts from the Bessel-zero
asymptotic of the roots, within 1e-10 of them for n >= 128, so one
recurrence pass ends it there.

Its nodes come in exact mirror pairs +-v, and the chart maps a mirror
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

The potential is even too, so x -> -x maps an orbit onto itself at the
same energy.  The chart's angle chi = atan2(v / sqrt(2h), sign(x)
sqrt(Phi / h)) goes to pi - chi, and as the angle series Q(chi) has only
even modes, Q(pi - chi) = pi - Q(chi), with K and c(K) unchanged.  Then
cos(m (pi - Q)) = (-1)^m cos(mQ) and v sin(m (pi - Q)) = -(-1)^m v sin(mQ),
so at -x the density's oscillating part is (-1)^m times, the current
(-1)^(m+1) times, and the mean density rho_bar equal to, their values at
x.  The grid is mirrored about its central node x = 0, so only its x >= 0
half is pulled back, the x >= 0, v >= 0 quarter of the nodes, and each
node x < 0 reads the sums of its mirror's row with its sign.

The rates lie in one narrow band [r0 - h, r0 + h], and with u = (r - r0)/h
the Jacobi-Anger expansion (DLMF 10.12.3) gives

    exp(i r t) = exp(i r0 t) sum_k a_k(h t) T_k(u),  a_k = i^k eps_k J_k,

eps_0 = 1 and eps_k = 2 after.  As |J_k(z)| <= (z/2)^k / k!, the first P
terms reach round-off, P the fewest with (z/2)^P / P! < 2^-53 at
z = h max|t|.  A call takes the series where its estimated work is the
smaller (``series_order``), and never with at most P times: it builds the
Chebyshev moments M_k, the row sums of amp T_k(u), once, then costs a
P-term sum per time and row, and rounds the phase r0 t once per time, not
once per node: that matters, as sup|phi_t| is about 1e-5 of the node
amplitudes.  The times are summed a block at a time, so the coefficients
a_k(h t) of all times are never held at once.  Otherwise it takes one tan
per half node and time, from which the half-angle formulas
(``half_angle_sin_cos``) give the sin (density) or cos (current).  The
node set's cos(mQ) and sin(mQ), and each DFT sample, come from one tan too.

Every moment is a linear table of these row sums on the x >= 0 rows,
reflected to the grid once with its sign.  The scan takes any row measure,
the node set being one: an object with the rates ``rate`` = m c(K), stored
row by row, the abs_x ``rows`` that hold nodes, the first node ``starts`` of
each, the grid rows ``abs_x`` and the band ``r0`` +- ``h``.  One generator
(``stream``) picks the route and cuts the times into blocks of row sums, to
which each moment applies its table.  The potential phi = -int_0^x int_0^y rho
solves -phi'' = rho with phi(0) = phi'(0) = 0, by Simpson's rule at the
grid's step (``_cumulative_simpson``); its mean part is integrated once, and
its oscillating part is (-1)^m-signed at -x, as the density's is, and so is
phi_t(x) = int_0^x (j(y) - j(0)) dy: for odd m the current is even in x,
and for even m it is odd, so j(0) = 0.  Only the decay scan
(``mixing.sup_phi_t``) tables inside the stream, so that the series applies
its table once to the P moment rows; it keeps each block's maximum over the
half rows and j(t, 0).  A centered time difference of phi is a second,
independent phi_t route, whose gap from the first converges at O(dt**2).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .action_angle import half_angle_sin_cos
from .potential import PotentialParams, invert_phi, phi as potential_phi
from .transport import InitialData, pull_back

__all__ = ["gauss_legendre", "spatial_grid", "series_order", "stream", "stream_rows",
           "MomentCalculator"]


# j_{0,k}, the first ten positive zeros of the Bessel function J_0.
_BESSEL_J0_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976,
)


def _first_guess(n: int) -> np.ndarray:
    """theta = arccos x of the n // 2 largest roots x of P_n, descending in x.

    The Bessel-zero asymptotic theta = psi + (psi cot psi - 1) / (8 psi nu^2),
    psi = j_{0,k} / nu and nu = n + 1/2 (I. Bogaert, SIAM J. Sci. Comput. 36
    (2014) A1008): within 1e-10 of the roots for n >= 128, 1.5e-9 at n = 64.
    Past the table, j_{0,k} comes from McMahon's expansion (DLMF 10.21.19) in
    a = (k - 1/4) pi to (8a)^-5, within 3.6e-11.
    """
    a = (np.arange(1, n // 2 + 1) - 0.25) * np.pi
    r2 = (8.0 * a) ** -2
    zeros = a + (1.0 + r2 * (-124.0 / 3.0 + r2 * (120928.0 / 15.0))) / (8.0 * a)
    zeros[: len(_BESSEL_J0_ZEROS)] = _BESSEL_J0_ZEROS[: zeros.size]
    nu = n + 0.5
    psi = zeros / nu
    return psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * nu**2)


def _newton(n: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton in theta on the three-term recurrence for P_n, from ``theta``.

    Returns the roots x = cos(theta), dP_n/dtheta there, and the number of
    recurrence passes taken.  The iteration stops after the pass whose step
    is below 2e-8 / n, and returns the cosine of the stepped theta.  Near a
    root theta_k the error e goes to (cot(theta_k) / 2) e^2, and
    cot(theta_k) < n / 2 at the largest root, so that step leaves theta
    exact to rounding.
    """
    coeffs = [((2 * j + 1) / (j + 1), j / (j + 1)) for j in range(1, n)]
    passes = 0
    while True:
        passes += 1
        x = np.cos(theta)
        prev, p = np.ones_like(x), x
        for a, b in coeffs:
            prev, p = p, a * x * p - b * prev
        # dP_n/dtheta = n (x P_n - P_{n-1}) / sin(theta), plus cot(theta) P_n
        # to carry it to the root (there d^2 P_n/dtheta^2 = -cot(theta)
        # dP_n/dtheta), with theta = arccos of the rounded x.  Then the
        # weights 2 / (dP_n/dtheta)^2 inherit neither the rounding of x,
        # which near x = 1 costs them a relative n^2 eps, nor the last step.
        slope = ((n + 1) * x * p - n * prev) / np.sqrt((1.0 - x) * (1.0 + x))
        step = p / slope
        theta = theta - step
        if n * np.max(np.abs(step), initial=0.0) < 2e-8:
            return np.cos(theta), slope, passes


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton in theta = arccos x on the three-term recurrence finds the n // 2
    roots with theta in (0, pi/2), from a Bessel-zero first guess close
    enough that one recurrence pass ends it for n >= 128 (two at n = 64);
    the rule mirrors them, so ``x == -x[::-1]`` and ``w == w[::-1]`` hold
    exactly, and an odd rule's centre node is 0.  O(n^2) work, no linear
    algebra.  Each rule is built once per process and shared: its arrays are
    read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x, slope, _ = _newton(n, _first_guess(n))
    x, w = x[::-1], 2.0 / slope[::-1] ** 2
    centre_x, centre_w = np.empty(0), np.empty(0)
    if n % 2:
        # The centre node 0: P_n'(0) = n P_{n-1}(0), and P_{j+1}(0) = -j/(j+1) P_{j-1}(0).
        p0 = math.prod(-j / (j + 1) for j in range(1, n - 1, 2))
        centre_x, centre_w = np.zeros(1), np.array([2.0 / (n * p0) ** 2])
    rule = np.concatenate((-x[::-1], centre_x, x)), np.concatenate((w[::-1], centre_w, w))
    for array in rule:
        array.flags.writeable = False
    return rule


def spatial_grid(params: PotentialParams, c_s: float, n: int) -> np.ndarray:
    """Uniform grid on [-x_max, x_max], x_max = Phi^{-1}(1/c_s), antisymmetric.

    The node count must be odd, so that x = 0 is a grid node.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("grid needs an odd number of nodes, at least 3")
    x_max = float(invert_phi(params, 1.0 / c_s))
    # Mirrored, not linspace(-x_max, x_max, n): x_{n-1-i} = -x_i exactly,
    # so the node set pulls each |x| back once.
    half = np.linspace(0.0, x_max, n // 2 + 1)
    return np.concatenate((-half[:0:-1], half))


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """int_0^{i dx} y along the last axis on nodes dx apart, 0 at the first.

    SciPy's ``cumulative_simpson(y, dx=dx, initial=0)`` operation for
    operation, so the two agree bit for bit: interval i takes the parabola
    through nodes i, i+1, i+2, dx/12 (5, 8, -1), when i is even, and through
    i-1, i, i+1, dx/12 (-1, 8, 5), when i is odd (the last interval always
    the latter).  Two nodes fall back to the trapezoid.
    """
    if y.shape[-1] < 3:
        pieces = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        first, mid, last = y[..., :-2], y[..., 1:-1], y[..., 2:]
        ahead = dx / 3.0 * (5.0 * first / 4.0 + 2.0 * mid - last / 4.0)
        behind = dx / 3.0 * (5.0 * last / 4.0 + 2.0 * mid - first / 4.0)
        pieces = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
        pieces[..., :-1:2] = ahead[..., ::2]
        pieces[..., 1::2] = behind[..., ::2]
        pieces[..., -1] = behind[..., -1]
    out = np.zeros(y.shape)
    # Adding SciPy's initial value 0 turns a -0.0 into 0.0, as it does there.
    out[..., 1:] = np.cumsum(pieces, axis=-1) + 0.0
    return out


# Complex DFT samples (series) or abs_x row sums (trig) per block of times:
# a stream's arrays stay near 1 MiB however many times a call takes, and
# the default 292-time scan (88 samples per time) is one block.
_SCAN_SAMPLES = 2**16

# The work of the two routes, in multiply-adds of the series' product
# (0.44 ns each on a 2-vCPU Xeon, NumPy 2.4): one node's tan, its
# half-angle cos or sin, product and row sum at one time costs about 15 of
# them (6.1-7.8 ns), one node's step of the Chebyshev recurrence with its
# row sum about 4 (1.9 ns), and one DFT sample, its share of the exp on
# theta in [0, pi], of the FFT and of the block's other work, about 87
# (39 ns).  Those are a least-squares fit to the medians of 5 and 7 runs of
# both routes on the 201 x 128 and 801 x 512 node sets, 400 times at
# P = 43, 124, 221 and 316 and 3,000 at P = 43, 316, 790 and 1,926; it
# predicts the series' times to within 0.78-1.19 of the measured ones.  Of
# the whole numbers near the fit that choose the faster route in all 16
# cases, these leave the widest margin at the two closest calls: 3,000
# times at P = 316 on 201 x 128 (series 0.90 of trig, estimated 0.94) and
# at P = 1,926 on 801 x 512 (1.29, estimated 1.04).
_TRIG_WORK = 15
_BUILD_WORK = 6
_SAMPLE_WORK = 65


def _order(z: float, cap: int) -> int:
    """The fewest terms P >= 1 with (z/2)^P / P! < 2^-53, a bound on |J_P(z)|, or cap."""
    p = 1
    while p < cap and z > 0 and p * math.log(0.5 * z) - math.lgamma(p + 1) >= -53 * math.log(2):
        p += 1
    return p


def series_order(measure, times: np.ndarray) -> int:
    """The Jacobi-Anger order P that sums ``times`` over ``measure``, or 0 where trig costs less.

    The series builds P moment rows over the nodes once, then takes a DFT of
    2P + 2 samples and P multiply-adds per row and time; trig takes one tan
    per node and time.  A call with at most P times always takes trig.
    """
    n, nodes, rows = times.size, measure.rate.size, measure.starts.size
    order = _order(measure.h * np.max(np.abs(times), initial=0.0), n)
    if n <= order:
        return 0
    series = _BUILD_WORK * order * nodes + n * (order * rows + _SAMPLE_WORK * (2 * order + 2))
    return order if series < _TRIG_WORK * n * nodes else 0


def _trig_sums(measure, times: np.ndarray, amp: np.ndarray, part: str) -> np.ndarray:
    """abs_x row sums of amp * cos (``part="real"``) or sin(r t), one time at a time."""
    sums = np.zeros((times.size, measure.abs_x.size))
    sin, cos = np.empty(measure.rate.size), np.empty(measure.rate.size)
    row = cos if part == "real" else sin
    for i, ti in enumerate(times):
        half_angle_sin_cos(np.multiply(0.5 * ti, measure.rate, out=sin), sin, cos)
        row *= amp
        sums[i, measure.rows] = np.add.reduceat(row, measure.starts)
    return sums


def _moments(measure, amp: np.ndarray, order: int) -> np.ndarray:
    """The Chebyshev moments M_k, the abs_x row sums of amp T_k(u), k < order."""
    # T_k(u) by T_{k+1} = 2u T_k - T_{k-1}, started from T_{-1} = T_1 = u.
    u = (measure.rate - measure.r0) / measure.h if order > 1 else 0.0
    two_u = 2.0 * u
    moments = np.zeros((order, measure.abs_x.size))
    prev, cur, spare = amp * u, amp.copy(), np.empty_like(amp)
    for k in range(order):
        moments[k, measure.rows] = np.add.reduceat(cur, measure.starts)
        np.multiply(two_u, cur, out=spare)
        spare -= prev
        prev, cur, spare = cur, spare, prev
    return moments


def stream(measure, times: np.ndarray, amp: np.ndarray, part: str, table=None):
    """Yields (index of the first time, values) a block of ``times`` at a time:
    ``table`` of the abs_x row sums of amp * Re (``part="real"``) or Im
    exp(i r t) over ``measure``, a linear map along the last axis, the rows
    themselves by default; the series applies it once to the moment rows,
    trig to each block's row sums.  Only the decay scan passes one."""
    table = table or (lambda rows: rows)
    order = series_order(measure, times)
    if order:
        rows = table(_moments(measure, amp, order))
        # a_k(z) = i^k eps_k J_k(z), the Chebyshev coefficients of exp(i z u),
        # from the DFT of exp(i z cos theta) on 2 order + 2 angles: the
        # aliased terms are J_k with k > order + 2, below the truncation.
        # The samples are even in theta, so only theta in [0, pi] is taken.
        n, half = 2 * order + 2, order + 2
        cos_theta = np.cos(2.0 * np.pi / n * np.arange(half))
    step = max(1, _SCAN_SAMPLES // (2 * order + 2 if order else measure.abs_x.size))
    for lo in range(0, times.size, step):
        t = times[lo : lo + step]
        if not order:
            yield lo, table(_trig_sums(measure, t, amp, part))
            continue
        samples = np.empty((t.size, n), dtype=complex)
        angle = np.multiply.outer((0.5 * measure.h) * t, cos_theta)
        sin, cos = half_angle_sin_cos(angle, angle)
        samples.real[:, :half], samples.imag[:, :half] = cos, sin
        samples[:, half:] = samples[:, half - 2 : 0 : -1]
        coeffs = np.fft.fft(samples, axis=1)[:, :order] / n
        coeffs[:, 1:] *= 2.0
        # a_k is real for even k and imaginary for odd k, so the sum splits
        # into two real products; the DFT's rounding in the other part drops.
        even = np.einsum("tk,kr->tr", coeffs[:, 0::2].real, rows[0::2])
        odd = np.einsum("tk,kr->tr", coeffs[:, 1::2].imag, rows[1::2])
        # r0 t in extended precision, where the platform has it.
        phase = np.longdouble(measure.r0) * t
        cos, sin = np.cos(phase).astype(float)[:, None], np.sin(phase).astype(float)[:, None]
        if part == "real":
            even *= cos
            even -= sin * odd
        else:
            even *= sin
            even += cos * odd
        yield lo, even


def stream_rows(measure, t, amp: np.ndarray, part: str) -> np.ndarray:
    """The stream's row sums held at once: one abs_x row per time of ``t``."""
    times = np.asarray(t, dtype=float)
    rows = np.empty((times.size, measure.abs_x.size))
    for lo, block in stream(measure, times.reshape(-1), amp, part):
        rows[lo : lo + block.shape[0]] = block
    return rows.reshape(times.shape + measure.abs_x.shape)


class MomentCalculator:
    """Quadrature node set of one spatial grid, pulled back through the chart.

    Parameters
    ----------
    f0 : the initial data, which fixes the potential, the support and the
        chart.
    grid_points : number of nodes of the uniform spatial grid
        ``spatial_grid(f0.params, f0.c_s, grid_points)``: odd and >= 3, so
        that it is mirrored about its central node x = 0.
    n_quad : number of Gauss-Legendre velocity nodes (>= 64).

    Every moment method takes a scalar time, giving one value per grid
    node ``x``, or a 1-D array of times, giving one row per time: one stream
    of an amplitude's row sums, its table on the rows of the x >= 0 half of
    the grid (``abs_x``, with the support half-width ``v_max``), and one
    reflection to the grid.  ``support_nodes`` counts the nodes
    inside the support in the x >= 0, v >= 0 quarter that is pulled back.
    It is a row measure of the scan, with amplitudes ``rho_amp`` and ``j_amp``.
    """

    def __init__(self, f0: InitialData, grid_points: int, n_quad: int):
        if n_quad < 64:
            raise ValueError("n_quad must be >= 64")
        self.x = spatial_grid(f0.params, f0.c_s, grid_points)
        self.abs_x = self.x[grid_points // 2 :]
        # The grid's step: abs_x starts at 0.
        self._dx = float(self.abs_x[1])
        room = f0.h_max - np.asarray(potential_phi(f0.params, self.abs_x))
        self.v_max = np.sqrt(np.clip(2.0 * room, 0.0, None))
        nodes, weights = gauss_legendre(n_quad)
        half = n_quad // 2
        w = 2.0 * weights[half:]
        if n_quad % 2:
            w[0] = weights[half]
        v = self.v_max[:, None] * nodes[half:]
        inside, q, k = pull_back(f0, self.abs_x[:, None], v)
        weight = (self.v_max[:, None] * w)[inside] * f0.bump(k)
        self.rate = f0.m * f0.chart.c_of_k(k)
        self.support_nodes = self.rate.size
        # The band of the support's rates, from the chart: one band, and one
        # Chebyshev basis, for every node set of f0.
        lo, hi = f0.m * f0.chart.c_of_k([f0.h_min, f0.h_max])
        self.r0, self.h = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # sin(mQ) and cos(mQ); the sines overwrite q, which is not read again.
        sin, cos = half_angle_sin_cos(np.multiply(0.5 * f0.m, q, out=q), q)
        self.rho_amp = f0.alpha * weight * cos
        self.j_amp = f0.alpha * weight * v[inside] * sin
        # The support nodes are stored row by row: one segment per |x| row
        # that has any, the rows listed in ``rows``; rows with none sum to 0.
        counts = inside.sum(axis=1)
        self.rows = np.flatnonzero(counts)
        self.starts = (np.cumsum(counts) - counts)[self.rows]
        # The reflection's sign at x < 0: the parity (-1)^m for the density,
        # the potential and phi_t, -(-1)^m for the current.  It comes from the
        # integer m: a float (-1.0) ** m reads every odd m above 2^53 as even.
        self._parity = -1.0 if f0.m % 2 else 1.0
        # The time-independent means of rho and phi, both even in x.
        rho_bar = np.zeros(self.abs_x.size)
        rho_bar[self.rows] = np.add.reduceat(weight, self.starts)
        self._rho_mean = self._to_grid(rho_bar)
        self._phi_mean = self._to_grid(self._phi_table(rho_bar))

    def _to_grid(self, rows: np.ndarray, sign=1.0, mean=0.0) -> np.ndarray:
        """abs_x rows (last axis) reflected to the grid, times ``sign`` at x < 0,
        plus ``mean``.

        Adding the mean, 0.0 by default, turns a -0.0 into 0.0: a row with no
        support node reads -0.0 on the series route, and a 0.0 reflected with
        sign -1 reads -0.0.
        """
        return mean + np.concatenate((sign * rows[..., :0:-1], rows), axis=-1)

    def _phi_table(self, rows: np.ndarray) -> np.ndarray:
        """-int_0^x int_0^y of abs_x rows (last axis), on the x >= 0 half."""
        return _cumulative_simpson(-_cumulative_simpson(rows, self._dx), self._dx)

    def phi_t_table(self, rows: np.ndarray) -> np.ndarray:
        """int_0^x (s - s(0)) of abs_x rows s (last axis), on the x >= 0 half."""
        return _cumulative_simpson(rows - rows[..., :1], self._dx)

    def density(self, t) -> np.ndarray:
        """rho(t, x) = int f dv over the exact support interval."""
        return self._to_grid(stream_rows(self, t, self.rho_amp, "imag"), self._parity,
                             self._rho_mean)

    def potential(self, t) -> np.ndarray:
        """phi(t, x) = -int_0^x int_0^y rho: -phi'' = rho, phi(0) = phi'(0) = 0."""
        rows = stream_rows(self, t, self.rho_amp, "imag")
        return self._to_grid(self._phi_table(rows), self._parity, self._phi_mean)

    def phi_t(self, t) -> np.ndarray:
        """phi_t(t, x) = int_0^x (j(t, y) - j(t, 0)) dy, the reconstruction formula."""
        return self._to_grid(self.phi_t_table(stream_rows(self, t, self.j_amp, "real")),
                             self._parity)

    def fields(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rho, j, phi, phi_t) from one stream of each amplitude: phi and phi_t
        apply their tables to the streamed density and current rows."""
        rho = stream_rows(self, t, self.rho_amp, "imag")
        j = stream_rows(self, t, self.j_amp, "real")
        return (self._to_grid(rho, self._parity, self._rho_mean),
                self._to_grid(j, -self._parity),
                self._to_grid(self._phi_table(rho), self._parity, self._phi_mean),
                self._to_grid(self.phi_t_table(j), self._parity))

    def phi_t_fd(self, t: float, dt: float) -> np.ndarray:
        """Centered time difference of phi; independent phi_t route."""
        if not dt > 0:
            raise ValueError("dt must be > 0")
        ahead, behind = self.potential(np.array([t + dt, t - dt]))
        return (ahead - behind) / (2.0 * dt)
