"""Cost, memory and agreement of the streamed decay scan against phi_t held on the grid.

``mixing.sup_phi_t`` streams sup_x |phi_t| and the tail |j(t, 0)| from the
x >= 0 half of the grid, a block of times at a time (``moments.stream``).
The grid route holds phi_t and the current on the whole grid at every time
(``MomentCalculator.fields``, which also holds the density and the
potential), reflected from the same stream's tables.  For the decay scan
of each config this script reports

* ``ms``: the best in-process wall time of each route over a few repeats;
* ``MiB``: the ``tracemalloc`` peak of one call of each route;
* ``dev``: the largest deviation of the streamed sup from the grid one,
  relative to the scan's largest sup, and whether the two tails agree bit
  for bit.

Run from the repository root::

    PYTHONPATH=src python studies/scan_stream.py [--repeats N] [--set key=value ...]

With ``--set``, only the default config with those overrides is measured.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from phasemix.cli import load_config
from phasemix.experiment import Experiment
from phasemix.mixing import sup_phi_t
from phasemix.moments import series_order

# The default scan and the resolved long scans, 17 samples per period.
CONFIGS = {
    "default": [],
    "T = 1000, 801 x 1024": ["grid_points=801", "v_quad=1024", "t_max=1000",
                             "samples_per_period=17", "fit_window=[20, 1000]"],
    "T = 2000, 1601 x 1024": ["grid_points=1601", "v_quad=1024", "t_max=2000",
                              "samples_per_period=17", "fit_window=[20, 2000]"],
}


def full_grid(calc, times):
    """sup_x |phi_t| and |j(t, 0)| from phi_t and the current held on the whole grid."""
    _, j, _, phi_t = calc.fields(times)
    return np.max(np.abs(phi_t), axis=-1), np.abs(j[:, calc.x.size // 2])


def measure(route, calc, times, repeats):
    """(result, best wall time in ms, tracemalloc peak in MiB) of one route."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        route(calc, times)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        result = route(calc, times)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return result, best * 1e3, peak


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", dest="overrides", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    configs = {"with --set": args.overrides} if args.overrides else CONFIGS
    print(f"{'scan':>24} {'times':>6} {'order':>5} {'full ms':>8} {'MiB':>7} "
          f"{'stream ms':>9} {'MiB':>7} {'dev':>9} tail")
    for name, overrides in configs.items():
        exp = Experiment(load_config(None, overrides))
        calc, times = exp.node_set, exp.times
        (sup_full, tail_full), full_ms, full_mib = measure(full_grid, calc, times, args.repeats)
        (sup, tail), stream_ms, stream_mib = measure(sup_phi_t, calc, times, args.repeats)
        dev = np.max(np.abs(sup - sup_full)) / np.max(sup_full)
        same = "equal" if np.array_equal(tail, tail_full) else "DIFFER"
        print(f"{name:>24} {times.size:>6} {series_order(calc, times):>5} {full_ms:8.1f} "
              f"{full_mib:7.2f} {stream_ms:9.1f} {stream_mib:7.2f} {dev:9.2e} {same}")


if __name__ == "__main__":
    main()
