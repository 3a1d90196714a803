"""The invariants ``phasemix validate`` checks, one function each.

Each check takes an :class:`~phasemix.experiment.Experiment` and returns
``(measured, tolerance)``; it passes when ``measured <= tolerance``.  The
checks share the experiment, so its chart and the run's node set are built
at most once; a chart that fails to build fails each check that needs it.
:data:`CHECKS` lists them in report order and :func:`run` turns one into
its ``validate.json`` entry.
"""

from __future__ import annotations

import random

import numpy as np

from .action_angle import compute_c, exact_frequency, from_action_angle, to_angle_energy
from .experiment import Experiment
from .flow import flow_map
from .mixing import q_fourier_spectrum
from .moments import gauss_legendre
from .potential import invert_phi, phi as potential_phi
from .transport import evaluate_f_actionangle, evaluate_f_characteristic

__all__ = ["CHECKS", "run"]


def potential_round_trip(exp: Experiment):
    params = exp.params
    h = np.geomspace(1e-6, 1e3, 200)
    return np.max(np.abs(potential_phi(params, invert_phi(params, h)) - h) / h), 1e-12


def flow_reversibility(exp: Experiment):
    x1, v1 = flow_map(exp.params, 1.0, 0.3, 10.0)
    x2, v2 = flow_map(exp.params, x1, v1, -10.0)
    return max(abs(x2 - 1.0), abs(v2 - 0.3)), 1e-8


def frequency_period_duality(exp: Experiment):
    """c from the full-circle rule against the closed form, 2 pi / period."""
    h = np.array([0.5, 1.0, 2.0])
    c = compute_c(exp.params, h, n_quad=max(16, exp.cfg.n_chi))
    exact = exact_frequency(exp.params, h)[0]
    return np.max(np.abs(c - exact) / exact), 1e-6


def c_prime_vs_fd(exp: Experiment):
    """c' against a centred difference of the full-circle rule's c."""
    params, step, n_quad = exp.params, 1e-4, max(256, exp.cfg.n_chi)
    h = np.array([0.5, 1.0, 2.0])
    fd = (compute_c(params, h + step, n_quad) - compute_c(params, h - step, n_quad)) / (2 * step)
    return np.max(np.abs(exact_frequency(params, h)[1] - fd)), 1e-6


def _angle_error(exp: Experiment, chi, ks) -> float:
    """Largest |chi' - chi| for chi' the angle of the closed-form point at
    the chart's (Q(chi), K): the chart's Q(chi) against the exact orbit."""
    x, v = from_action_angle(exp.params, exp.chart.q_from_chi(chi, ks)[0], ks)
    return float(np.max(np.abs(to_angle_energy(exp.params, x, v)[0] - chi)))


def chart_geometry_roundtrip(exp: Experiment):
    """Q(pi/2) = pi/2, and the chart's Q(chi) against the exact orbit on
    41 x 11 probes of the chart's energy range."""
    chart = exp.chart
    geom = np.max(np.abs(chart.q_from_chi(np.pi / 2, chart.k_grid)[0] - np.pi / 2))
    ks = np.linspace(chart.k_min, chart.k_max, 11)[:, None]
    return max(geom, _angle_error(exp, np.linspace(-3.0, 3.0, 41), ks)), 1e-9


def chart_convergence(exp: Experiment):
    """The run's chart against the closed forms: c_of_k against
    :func:`exact_frequency` at 17 energies, and the angle error of Q(chi)
    on 13 x 17 probes, so no second chart is built."""
    chart = exp.chart
    ks = np.linspace(chart.k_min, chart.k_max, 17)
    dc = np.max(np.abs(chart.c_of_k(ks) - exact_frequency(exp.params, ks)[0]))
    dq = _angle_error(exp, np.linspace(0.1, 3.0, 13)[:, None], ks)
    return max(dq, float(dc)), 1e-9


def jacobian_mass_equivalence(exp: Experiment):
    """Mass in (x, v) on the run's node set against mass in (Q, K), dx dv = dQ dK / c(K).

    The density vanishes to all orders at +-x_max, so the trapezoid rule on
    the run's uniform grid converges spectrally: a grid that cannot hold the
    density fails here.
    """
    f0, calc = exp.f0, exp.node_set
    mass_xv = float(np.trapezoid(calc.density(0.0), calc.x))
    k_nodes, k_weights = gauss_legendre(128)
    k = 0.5 * (f0.h_min + f0.h_max) + 0.5 * (f0.h_max - f0.h_min) * k_nodes
    integrand = f0.bump(k) / exp.chart.c_of_k(k)
    mass_qk = 2.0 * np.pi * 0.5 * (f0.h_max - f0.h_min) * float(integrand @ k_weights)
    return abs(mass_xv - mass_qk) / abs(mass_qk), 1e-6


def mass_conservation(exp: Experiment):
    """Mass on the run's node set at t = 50 against t = 0."""
    calc = exp.node_set
    m0, m50 = np.trapezoid(calc.density(np.array([0.0, 50.0])), calc.x)
    return abs(m50 - m0) / abs(m0), 1e-6


def cross_solver_equivalence(exp: Experiment):
    """max |f_aa - f_char| at t = 1 and 10 on 30 seeded points of the annulus."""
    # The stdlib generator: numpy.random would add its import to every start-up.
    rng = random.Random(exp.cfg.seed)
    ks = np.array([rng.uniform(exp.cfg.c_s, 1.0 / exp.cfg.c_s) for _ in range(30)])
    qs = np.array([rng.uniform(-np.pi, np.pi) for _ in range(30)])
    xs, vs = from_action_angle(exp.params, qs, ks)
    worst = 0.0
    for t in (1.0, 10.0):
        aa = evaluate_f_actionangle(exp.f0, t, xs, vs)
        ch = evaluate_f_characteristic(exp.f0, t, xs, vs)
        worst = max(worst, float(np.max(np.abs(aa - ch))))
    return worst, 1e-4


def phi_t_route_equivalence(exp: Experiment):
    """|r - 4| for the gap ratio r of the phi_t routes at dt = 2e-3 and 1e-3,
    against 1: the O(dt**2) gap ratio lies in [3, 5].

    The only check with a node set of its own, 801 x 512: the routes'
    quadrature floor must sit below the O(dt**2) gap for the ratio to show.
    On the default run's 201 x 128 set the floor is 5.7e-7 at t = 5 (the
    Richardson estimate from the two steps), so the ratio reads 1.18 and the
    check would fail.  At dt = 0.1 and 0.05 it reads 3.98 there, but the
    band [3, 5] then admits a floor of a third of the finer gap, about 3e-5,
    where at 801 x 512 and these steps it admits about 1e-8.
    """
    calc = exp.node_set_on(801, 512, "801-point grid x 512 velocity nodes")
    t = 5.0
    ref = calc.phi_t(t)
    err = [float(np.max(np.abs(calc.phi_t_fd(t, dt) - ref))) for dt in (2e-3, 1e-3)]
    ratio = err[0] / err[1] if err[1] > 0 else np.inf
    # |ratio - 4| <= 1 is the band exactly: ratio - 4 is exact for ratio in
    # [2, 8] (Sterbenz), and outside it both reject.
    return abs(ratio - 4.0), 1.0


def spectrum_translation(exp: Experiment):
    """The Q-spectrum at t = 10 is the t = 0 one with mode m turned by m c(K) t."""
    f0 = exp.f0
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    s0, s1 = (q_fourier_spectrum(f0, t, k_mid) for t in (0.0, 10.0))
    mod = float(np.max(np.abs(np.abs(s1) - np.abs(s0))))
    c = float(f0.chart.c_of_k(k_mid))
    k_mode = f0.m
    if s0[k_mode] == 0 or s1[k_mode] == 0:
        raise ValueError(f"mode m = {k_mode} of the Q-spectrum is 0: its phase is undefined")
    expected = (k_mode * c * 10.0) % (2 * np.pi)
    got = float(np.angle(s1[k_mode] / s0[k_mode]) % (2 * np.pi))
    phase_err = abs((got - expected + np.pi) % (2 * np.pi) - np.pi)
    return max(mod, phase_err), 1e-8


CHECKS = (
    potential_round_trip,
    flow_reversibility,
    frequency_period_duality,
    c_prime_vs_fd,
    chart_geometry_roundtrip,
    chart_convergence,
    jacobian_mass_equivalence,
    mass_conservation,
    cross_solver_equivalence,
    phi_t_route_equivalence,
    spectrum_translation,
)


def run(check, exp: Experiment) -> dict:
    """Run one check into its report entry.

    ``margin`` is ``measured / tolerance``, how close the check came to
    failing; it is ``None`` where ``measured`` is.  A crash or a measured
    value that is not finite is a failed check carrying ``error``, so the
    entry stays valid JSON.
    """
    try:
        measured, tolerance = check(exp)
    except Exception as exc:
        return {"name": check.__name__, "tolerance": None, "measured": None, "margin": None,
                "passed": False, "error": str(exc)}
    if not np.isfinite(measured):
        return {"name": check.__name__, "tolerance": tolerance, "measured": None, "margin": None,
                "passed": False, "error": f"the measured value is not finite: {float(measured)}"}
    return {"name": check.__name__, "tolerance": tolerance, "measured": float(measured),
            "margin": float(measured) / tolerance, "passed": bool(measured <= tolerance)}
