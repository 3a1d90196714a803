"""Which of the chart's gates refuses each chart of a grid, and how far from
0 the slope dQ/dchi of each accepted chart stays.

``build_chart`` (``phasemix.action_angle``) refuses a chart whose tables are
not finite, whose last kept mode lies above the tail floor (1e-6), or whose
c errs from the closed form by more than 1e-10.  It has no monotonicity
gate: the exact slope c/a is at least c(h) / a(0, h), which falls from 1 at
eps = 0 to AGM(1, 1/sqrt(2)) / sqrt(2) = 0.599 in the pure-quartic limit,
and the premise is that a chart within the accuracy gates samples no less.
Over a grid of (eps, c_s, n_k, n_chi) with n_k * n_chi <= 2**20, this
script prints one line per chart: the gate that refuses it (``finite``,
``tail`` or ``c``), or ``accepted`` with its smallest sampled slope.  Then
it prints the count per gate and the smallest slope among the accepted
charts, against the closed-form floor.

The slope 1 + sum_j 2j b_2j cos(2j chi) is sampled at every grid energy
by one inverse real FFT, on 8 (J + 1) angles of the half period for a
chart of J modes.

Run from the repository root::

    PYTHONPATH=src python studies/chart_gates.py [--eps 0.01 1 ...] [--c-s 0.5 ...]
        [--n-k 4 16 ...] [--n-chi 8 512 ...]
"""

from __future__ import annotations

import argparse
from collections import Counter
from itertools import product

import numpy as np
from numpy.fft import irfft

from phasemix import ChartError, PotentialParams, build_chart, chart_range_for_support

# The gate of each of build_chart's refusals, by a phrase of its message.
GATES = {"not finite": "finite", "truncated": "tail", "from the closed form": "c"}
MAX_CELLS = 2**20


def quartic_floor() -> float:
    """AGM(1, 1/sqrt(2)) / sqrt(2), the limit of c(h) / a(0, h) as eps h
    grows without bound."""
    a, b = 1.0, np.sqrt(0.5)
    for _ in range(6):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return a / np.sqrt(2.0)


def min_slope(sine_coeffs: np.ndarray) -> float:
    """The smallest sampled dQ/dchi over the rows (grid energies) of a sine
    table of the modes 2, 4, ..., 2J."""
    n_k, n_modes = sine_coeffs.shape
    n = 8 * (n_modes + 1)
    # irfft's bin j is mode 2j of chi: n * j b_2j gives 2j b_2j cos(2j chi).
    spectrum = np.zeros((n_k, n // 2 + 1))
    spectrum[:, 0] = n
    spectrum[:, 1 : n_modes + 1] = n * np.arange(1, n_modes + 1) * sine_coeffs
    return float(irfft(spectrum, n, axis=1).min())


def gate(eps: float, c_s: float, n_k: int, n_chi: int) -> tuple[str, float]:
    """The gate that refuses this chart, and NaN; or ``accepted`` and its
    smallest sampled slope."""
    try:
        chart = build_chart(PotentialParams(eps), *chart_range_for_support(c_s), n_k=n_k,
                            n_chi=n_chi)
    except ChartError as err:
        return next(name for phrase, name in GATES.items() if phrase in str(err)), np.nan
    return "accepted", min_slope(chart.sine_coeffs)


def survey(eps_values, c_s_values, n_k_values, n_chi_values):
    """(eps, c_s, n_k, n_chi, gate, slope) of each chart of the grid with
    n_k * n_chi <= 2**20."""
    for eps, c_s, n_k, n_chi in product(eps_values, c_s_values, n_k_values, n_chi_values):
        if n_k * n_chi <= MAX_CELLS:
            yield (eps, c_s, n_k, n_chi, *gate(eps, c_s, n_k, n_chi))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--eps", type=float, nargs="+", default=[10.0**p for p in range(-2, 6)])
    parser.add_argument("--c-s", type=float, nargs="+",
                        default=[0.9, 0.5, 0.3, 0.1, 0.05, 0.02, 0.01])
    parser.add_argument("--n-k", type=int, nargs="+", default=[4, 16, 64])
    parser.add_argument("--n-chi", type=int, nargs="+", default=[2**p for p in range(3, 19)])
    args = parser.parse_args()

    counts, lowest = Counter(), (np.inf, None)
    print(f"{'eps':>9} {'c_s':>6} {'n_k':>4} {'n_chi':>7} {'gate':>8} {'slope':>8}")
    for eps, c_s, n_k, n_chi, name, slope in survey(args.eps, args.c_s, args.n_k, args.n_chi):
        counts[name] += 1
        if slope < lowest[0]:
            lowest = (slope, (eps, c_s, n_k, n_chi))
        print(f"{eps:9.3g} {c_s:6.3g} {n_k:4d} {n_chi:7d} {name:>8} {slope:8.5f}")
    print(", ".join(f"{name} {counts[name]}" for name in ("accepted", *GATES.values())))
    print(f"smallest accepted slope {lowest[0]:.5f} at (eps, c_s, n_k, n_chi) = {lowest[1]}; "
          f"closed-form floor {quartic_floor():.5f}")


if __name__ == "__main__":
    main()
