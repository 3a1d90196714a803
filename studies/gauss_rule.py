"""Cost and accuracy of NumPy's ``leggauss`` against ``gauss_legendre``.

``leggauss`` takes the nodes as the eigenvalues of the Jacobi matrix
(LAPACK, O(n^3)); ``phasemix.moments.gauss_legendre`` runs Newton in
theta = arccos x on the three-term recurrence (O(n^2), no BLAS or LAPACK),
from a Bessel-zero first guess.  For each rule and node count n this
script reports

* ``ms``, ``cpu ms``: the median wall and process CPU time of one call,
  measured in a child process with ``OPENBLAS_NUM_THREADS`` 1 and 2.  The
  CPU time counts every thread, so OpenBLAS's worker spinning after a
  threaded call shows up there;
* ``node err``: the largest absolute error of a node, and ``weight err``
  the largest relative error of a weight, against a 40-digit ``mpmath``
  Newton on the recurrence, over the 8 largest nodes and 8 others spread
  down to the middle of the x >= 0 half.

and, for ``gauss_legendre`` alone, per n:

* ``guess err``: the largest error of its first guess in theta = arccos x,
  against the same 40-digit roots, over the 8 largest roots and 8 others
  spread down to the middle, where the guess is weakest;
* ``passes``: the recurrence passes Newton takes from that guess.  The
  iteration stops after the pass whose step is below 2e-8 / n, so from
  n = 128 up, where the guess is within 1e-10, one pass ends it.

Run from the repository root::

    PYTHONPATH=src python studies/gauss_rule.py [--repeats 15]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss

from phasemix.moments import _first_guess, _newton, gauss_legendre

SIZES = (64, 128, 201, 256, 512, 1024)
# gauss_legendre memoizes its rules; the study times the uncached build.
RULES = {"leggauss": leggauss, "gauss_legendre": gauss_legendre.__wrapped__}
THREADS = (1, 2)


def reference(n: int, x0: float):
    """The root of P_n next to ``x0`` and its weight, by Newton at 40 digits."""

    def legendre(x):
        prev, p = mpmath.mpf(1), x
        for j in range(1, n):
            prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
        return p, prev

    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(20):
            p, prev = legendre(x)
            step = p * (x * x - 1) / (n * (x * p - prev))
            x -= step
            if abs(step) < mpmath.mpf(10) ** -35:
                break
        p, prev = legendre(x)
        slope = n * (x * p - prev) / (x * x - 1)
        return x, 2 / ((1 - x * x) * slope**2)


def errors(n: int) -> dict[str, tuple[float, float]]:
    """(node err, weight err) of each rule on a sample of its x >= 0 nodes."""
    half = np.arange(n // 2, n)
    sample = np.unique(np.concatenate((half[-8:], half[np.linspace(0, half.size - 9, 8).astype(int)])))
    refs = [reference(n, x) for x in gauss_legendre(n)[0][sample]]
    out = {}
    for name, rule in RULES.items():
        x, w = rule(n)
        out[name] = (max(float(abs(x[i] - rx)) for i, (rx, _) in zip(sample, refs)),
                     max(float(abs(w[i] / rw - 1)) for i, (_, rw) in zip(sample, refs)))
    return out


def first_guess(n: int) -> tuple[float, int]:
    """(guess err, passes) of ``gauss_legendre``'s first guess at n nodes."""
    theta = _first_guess(n)
    roots = gauss_legendre(n)[0][::-1][: theta.size]
    pick = np.unique(np.concatenate((np.arange(min(8, theta.size)),
                                     np.linspace(0, theta.size - 1, 8).astype(int))))
    with mpmath.workdps(40):
        err = max(float(abs(mpmath.acos(reference(n, roots[j])[0]) - theta[j])) for j in pick)
    return err, _newton(n, theta)[2]


def child(name: str, repeats: int) -> None:
    """Print {n: [wall ms, cpu ms]} for one rule in this process."""
    rule = RULES[name]
    time.sleep(0.3)  # let the spin that importing NumPy starts run out
    result = {}
    for n in SIZES:
        walls, cpus = [], []
        for _ in range(repeats):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            rule(n)
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        result[n] = [1e3 * statistics.median(walls), 1e3 * statistics.median(cpus)]
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--child", choices=sorted(RULES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.repeats)
        return

    costs = {}
    for name in RULES:
        for threads in THREADS:
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            proc = subprocess.run([sys.executable, __file__, "--child", name,
                                   "--repeats", str(args.repeats)],
                                  env=env, capture_output=True, text=True, check=True)
            costs[name, threads] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'n':>5} {'rule':>15} {'threads':>7} {'ms':>7} {'cpu ms':>7} "
          f"{'node err':>9} {'weight err':>10}")
    for n in SIZES:
        err = errors(n)
        for name in RULES:
            for threads in THREADS:
                wall, cpu = costs[name, threads][str(n)]
                print(f"{n:>5} {name:>15} {threads:>7} {wall:7.2f} {cpu:7.2f} "
                      f"{err[name][0]:9.1e} {err[name][1]:10.1e}")
    print(f"\n{'n':>5} {'guess err':>9} {'passes':>6}")
    for n in SIZES:
        err, passes = first_guess(n)
        print(f"{n:>5} {err:9.1e} {passes:>6}")


if __name__ == "__main__":
    main()
