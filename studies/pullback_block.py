"""Cost and accuracy of the chart's pull-back against its block size.

``OrbitChart.q_from_chi`` sums the angle series Q = chi + sum_k b_k sin(k chi)
a block of points at a time (``phasemix.action_angle``): it sorts the block
by energy interval, fills a table of sin(2j chi), j = 1..J, by the
three-term recurrence, and takes one product of each interval's cubic
coefficients with its points' sines.  The effective block is
``min(_BLOCK_POINTS, _BLOCK_CELLS // J)`` points, so a chart with many modes
takes fewer; the candidate sizes below set ``_BLOCK_POINTS``.  For the
node sets of a config at three resolutions (grid points x velocity nodes)
and each candidate block size, this script reports

* ``ms``: the best in-process wall time of building the node set
  (``MomentCalculator``) over a few repeats;
* ``MiB``: the ``tracemalloc`` peak of one build;
* ``err``: the largest deviation of the node set's Q from the direct
  per-mode sum, relative to 1 + sum_k |b_k(K)|.

Run from the repository root::

    PYTHONPATH=src python studies/pullback_block.py [--set key=value ...]
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np
from scipy.interpolate import CubicSpline

from phasemix import action_angle
from phasemix.cli import load_config
from phasemix.experiment import Experiment
from phasemix.moments import MomentCalculator, gauss_legendre
from phasemix.transport import pull_back

RESOLUTIONS = ((201, 128), (801, 512), (1601, 1024))
BLOCKS = (1024, 2048, 4096, 8192, 16384)
# Points per chunk of the direct sum, whose (points x modes) temporaries
# are what the blocked sum avoids.
DIRECT_CHUNK = 1 << 16


def support_points(exp: Experiment, calc: MomentCalculator, n_quad: int):
    """(chi, K, Q) of the node set's support nodes in the x >= 0, v >= 0
    quarter, pulled back as MomentCalculator pulls them back."""
    nodes, _ = gauss_legendre(n_quad)
    x = calc.abs_x[:, None]
    v = calc.v_max[:, None] * nodes[n_quad // 2 :]
    inside, q, _, k = pull_back(exp.f0, x, v)
    chi, _ = action_angle.to_angle_energy(exp.params, np.broadcast_to(x, v.shape)[inside], v[inside])
    return chi, k, q


def direct_error(chart: action_angle.OrbitChart, chi, k, q) -> float:
    """Largest |Q - direct sum| / (1 + sum_k |b_k(K)|), with b_k(K) from
    SciPy's CubicSpline through the chart's sine table."""
    spline = CubicSpline(chart.k_grid, chart.sine_coeffs, axis=0)
    worst = 0.0
    for lo in range(0, chi.size, DIRECT_CHUNK):
        c, kk = chi[lo : lo + DIRECT_CHUNK], k[lo : lo + DIRECT_CHUNK]
        b = spline(kk)
        direct = c + np.sum(np.sin(np.multiply.outer(c, chart.modes)) * b, axis=-1)
        scale = 1.0 + np.sum(np.abs(b), axis=-1)
        worst = max(worst, float(np.max(np.abs(q[lo : lo + DIRECT_CHUNK] - direct) / scale)))
    return worst


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", dest="overrides", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    exp = Experiment(load_config(None, args.overrides))
    chart = exp.chart
    print(f"{chart.modes.size} modes, largest {chart.modes[-1] if chart.modes.size else 0}")
    print(f"{'grid x v':>12} {'support':>8} {'block':>6} {'ms':>8} {'MiB':>7} {'err':>9}")
    for grid, n_quad in RESOLUTIONS:
        for block in BLOCKS:
            action_angle._BLOCK_POINTS = block
            best = np.inf
            for _ in range(args.repeats):
                start = time.perf_counter()
                MomentCalculator(exp.f0, grid, n_quad=n_quad)
                best = min(best, time.perf_counter() - start)
            tracemalloc.start()
            calc = MomentCalculator(exp.f0, grid, n_quad=n_quad)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            chi, k, q = support_points(exp, calc, n_quad)
            err = direct_error(chart, chi, k, q)
            print(f"{grid:>5} x {n_quad:<4} {chi.size:>8} {block:>6} {best * 1e3:8.1f} "
                  f"{peak:7.1f} {err:9.2e}")


if __name__ == "__main__":
    main()
