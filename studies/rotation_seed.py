"""Error and cost of the rotated decay scan against its re-seed interval.

A scan advances z = exp(i m c t) from one sample time to the next by a
cached rotation and re-seeds it by exact trig every ``SEED`` times
(``phasemix.moments``).  For each candidate interval this script runs the
current over a config's decay schedule and reports

* ``err``: the largest deviation, over all times and grid nodes, from
  the same row sums with the phases, the trig and the sums taken in
  ``np.longdouble``, relative to the row's sum of |amplitude|;
* ``err/exact``: that deviation over the one of exact trig at every time
  (``SEED = 1``, no rotation);
* ``node``: the largest deviation of a single node's cos(m c t) from its
  long-double value, over all times and support nodes, and ``node/exact``;
* ``ms``: the best in-process wall time of the scan over a few repeats.

Run from the repository root::

    PYTHONPATH=src python studies/rotation_seed.py [--set key=value ...]
"""

from __future__ import annotations

import argparse
import copy
import time

import numpy as np

from phasemix import moments
from phasemix.cli import load_config
from phasemix.experiment import Experiment

SEEDS = (1, 4, 8, 16, 32, 64, 128, 1 << 30)


def reference_current(calc: moments.MomentCalculator, times: np.ndarray) -> np.ndarray:
    """Row sums of amp * cos(m c t) in long double, one time at a time."""
    rate = calc._rate.astype(np.longdouble)
    amp = calc._j_amp.astype(np.longdouble)
    out = np.zeros((times.size, calc.x.size), dtype=np.longdouble)
    for i, t in enumerate(times):
        vals = amp * np.cos(rate * np.longdouble(t))
        out[i, calc._rows] = np.add.reduceat(vals, calc._starts)
    return out


def node_view(calc: moments.MomentCalculator) -> moments.MomentCalculator:
    """The node set with unit amplitudes and one output row per support node,
    so that ``current`` returns each node's cos(m c t)."""
    nodes = calc._rate.size
    view = copy.copy(calc)
    view.x = np.zeros(nodes)
    view._rows = view._starts = np.arange(nodes)
    view._j_amp = np.ones(nodes)
    return view


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", action="append", dest="overrides", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    exp = Experiment(load_config(None, args.overrides))
    calc, times = exp.node_set, exp.times
    scale = calc._row_sums(np.abs(calc._j_amp))
    scale[scale == 0] = 1.0
    ref = reference_current(calc, times)
    nodes = node_view(calc)
    phase = calc._rate.astype(np.longdouble) * times.astype(np.longdouble)[:, None]
    node_ref = np.cos(phase)
    print(f"{times.size} times, {calc._rate.size} support nodes, t_max = {times[-1]:.1f}")
    print(f"{'SEED':>10} {'err':>10} {'err/exact':>10} {'node':>10} {'node/exact':>10} {'ms':>8}")
    exact = None
    for seed in SEEDS:
        moments.SEED = seed
        best = np.inf
        for _ in range(args.repeats):
            start = time.perf_counter()
            j = calc.current(times)
            best = min(best, time.perf_counter() - start)
        err = float(np.max(np.abs(j - ref) / scale))
        node_err = float(np.max(np.abs(nodes.current(times) - node_ref)))
        exact = exact or (err, node_err)
        label = "never" if seed >= times.size else str(seed)
        print(f"{label:>10} {err:10.2e} {err / exact[0]:10.2f} "
              f"{node_err:10.2e} {node_err / exact[1]:10.2f} {best * 1e3:8.1f}")


if __name__ == "__main__":
    main()
