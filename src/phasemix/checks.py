"""The invariants ``phasemix validate`` checks, one function each.

Each check takes an :class:`~phasemix.experiment.Experiment` and returns
``(measured, tolerance)``; it passes when ``measured <= tolerance``.  A
check that needs another verdict returns it as a third element.  The
checks share the experiment, so its chart is built at most once; a chart
that fails to build fails each check that needs it.  :data:`CHECKS`
lists them in report order and :func:`run` turns one into its
``validate.json`` entry.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

from .action_angle import build_chart, compute_c, compute_c_prime, from_action_angle
from .experiment import Experiment
from .flow import flow_map, orbit_period
from .mixing import q_fourier_spectrum
from .moments import spatial_grid
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
    worst = 0.0
    for h in (0.5, 1.0, 2.0):
        c = float(compute_c(exp.params, h, n_quad=max(16, exp.cfg.n_chi)))
        worst = max(worst, abs(c * orbit_period(exp.params, h) - 2 * np.pi) / (2 * np.pi))
    return worst, 1e-6


def c_prime_vs_fd(exp: Experiment):
    params, step = exp.params, 1e-4
    worst = 0.0
    for h in (0.5, 1.0, 2.0):
        fd = (compute_c(params, h + step) - compute_c(params, h - step)) / (2 * step)
        worst = max(worst, abs(float(compute_c_prime(params, h)) - float(fd)))
    return worst, 1e-6


def chart_geometry_roundtrip(exp: Experiment):
    chart = exp.chart
    geom = np.max(np.abs(chart.q_from_chi(np.pi / 2, chart.k_grid) - np.pi / 2))
    chi = np.linspace(-3.0, 3.0, 41)
    ks = np.linspace(chart.k_min, chart.k_max, 11)[:, None]
    rt = np.max(np.abs(chart.chi_from_q(chart.q_from_chi(chi, ks), ks) - chi))
    return max(geom, rt), 1e-9


def chart_convergence(exp: Experiment):
    chart, cfg = exp.chart, exp.cfg
    fine = build_chart(exp.params, chart.k_min, chart.k_max, n_k=2 * cfg.n_k, n_chi=2 * cfg.n_chi)
    ks = np.linspace(chart.k_min, chart.k_max, 17)
    chi = np.linspace(0.1, 3.0, 13)[:, None]
    dq = np.max(np.abs(chart.q_from_chi(chi, ks) - fine.q_from_chi(chi, ks)))
    dc = np.max(np.abs(chart.c_of_k(ks) - fine.c_of_k(ks)))
    return max(float(dq), float(dc)), 1e-9


def jacobian_mass_equivalence(exp: Experiment):
    """Mass in (x, v) on the Gauss grid against mass in (Q, K), dx dv = dQ dK / c(K)."""
    f0 = exp.f0
    calc, x_max, grid_weights = exp.mass_node_set
    mass_xv = x_max * float(calc.density(0.0) @ grid_weights)
    k_nodes, k_weights = leggauss(128)
    k = 0.5 * (f0.h_min + f0.h_max) + 0.5 * (f0.h_max - f0.h_min) * k_nodes
    integrand = f0.bump(k) / exp.chart.c_of_k(k)
    mass_qk = 2.0 * np.pi * 0.5 * (f0.h_max - f0.h_min) * float(integrand @ k_weights)
    return abs(mass_xv - mass_qk) / abs(mass_qk), 1e-6


def mass_conservation(exp: Experiment):
    calc, x_max, weights = exp.mass_node_set
    m0, m50 = (x_max * float(rho @ weights) for rho in calc.density(np.array([0.0, 50.0])))
    return abs(m50 - m0) / abs(m0), 1e-6


def cross_solver_equivalence(exp: Experiment):
    """max |f_aa - f_char| at t = 1 and 10 on 30 seeded points of the annulus."""
    rng = default_rng(exp.cfg.seed)
    ks = rng.uniform(exp.cfg.c_s, 1.0 / exp.cfg.c_s, 30)
    qs = rng.uniform(-np.pi, np.pi, 30)
    xs, vs = from_action_angle(exp.chart, qs, ks)
    worst = 0.0
    for t in (1.0, 10.0):
        aa = evaluate_f_actionangle(exp.f0, t, xs, vs)
        ch = evaluate_f_characteristic(exp.f0, t, xs, vs)
        worst = max(worst, float(np.max(np.abs(aa - ch))))
    return worst, 1e-4


def phi_t_route_equivalence(exp: Experiment):
    """Gap ratio of the phi_t routes at dt = 2e-3 and 1e-3: a band, [3, 5], not a tolerance."""
    # 512 velocity nodes: the quadrature floor must sit below the
    # O(dt**2) difference for the convergence ratio to be visible.
    calc = exp.node_set_on(spatial_grid(exp.params, exp.cfg.c_s, 801), 512,
                           "801-point grid x 512 velocity nodes")
    t = 5.0
    ref = calc.phi_t_reconstruct(t)
    err = [float(np.max(np.abs(calc.phi_t_fd(t, dt) - ref))) for dt in (2e-3, 1e-3)]
    ratio = err[0] / err[1] if err[1] > 0 else np.inf
    return ratio, 0.0, 3.0 <= ratio <= 5.0


def spectrum_translation(exp: Experiment):
    """The Q-spectrum at t = 10 is the t = 0 one with mode m turned by m c(K) t."""
    f0 = exp.f0
    k_mid = 0.5 * (f0.h_min + f0.h_max)
    s0 = q_fourier_spectrum(f0, 0.0, k_mid)
    s1 = q_fourier_spectrum(f0, 10.0, k_mid)
    mod = float(np.max(np.abs(np.abs(s1.coefficients) - np.abs(s0.coefficients))))
    c = float(f0.chart.c_of_k(k_mid))
    k_mode = f0.m
    if s0.coefficients[k_mode] == 0 or s1.coefficients[k_mode] == 0:
        raise ValueError(f"mode m = {k_mode} of the Q-spectrum is 0: its phase is undefined")
    expected = (k_mode * c * 10.0) % (2 * np.pi)
    got = float(np.angle(s1.coefficients[k_mode] / s0.coefficients[k_mode]) % (2 * np.pi))
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

    A crash or a measured value that is not finite is a failed check
    carrying ``error``, so the entry stays valid JSON.
    """
    try:
        measured, tolerance, *verdict = check(exp)
    except Exception as exc:
        return {"name": check.__name__, "tolerance": None, "measured": None, "passed": False,
                "error": str(exc)}
    if not np.isfinite(measured):
        return {"name": check.__name__, "tolerance": tolerance, "measured": None, "passed": False,
                "error": f"the measured value is not finite: {float(measured)}"}
    passed = verdict[0] if verdict else measured <= tolerance
    return {"name": check.__name__, "tolerance": tolerance, "measured": float(measured),
            "passed": bool(passed)}
