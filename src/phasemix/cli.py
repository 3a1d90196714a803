"""Command-line front end: ``phasemix chart|evolve|decay|validate``.

Configuration is a single JSON document; command-line ``--set key=value``
pairs override file keys.  Grids and series are emitted as CSV with a
header row and 17-significant-digit decimals, reports as JSON, so any
plotting stack can consume them.  Runs are deterministic for a fixed
config (fixed formatting, fixed seed).

Exit codes: 0 success, 1 failed invariant (validate), 2 configuration
error, 3 convergence or fit failure (an under-resolved chart included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

from .action_angle import (
    ChartError,
    build_chart,
    compute_c,
    compute_c_prime,
    from_action_angle,
)
from .experiment import ConfigError, Experiment, ExperimentConfig
from .flow import flow_map, orbit_period
from .mixing import FitError, fit_decay, q_fourier_spectrum, sup_phi_t
from .moments import MomentCalculator, spatial_grid
from .potential import invert_phi, phi as potential_phi
from .transport import evaluate_f_actionangle, evaluate_f_characteristic

__all__ = ["ConvergenceError", "load_config", "main"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


class ConvergenceError(RuntimeError):
    """A quadrature or fit did not meet its convergence requirement."""


def load_config(path: str | None, overrides: list[str] | None) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in fields:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--set {key}: value is not valid JSON: {raw!r}") from exc
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# output writers


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_chart(exp: Experiment, out: Path) -> int:
    cfg, chart = exp.cfg, exp.chart

    # Convergence evidence: the closed-orbit quadrature must be
    # insensitive to node doubling at the configured resolution.
    probes = np.linspace(chart.k_min, chart.k_max, 5)
    n_quad = max(16, cfg.n_chi)
    c_base = np.asarray(compute_c(exp.params, probes, n_quad=n_quad))
    c_fine = np.asarray(compute_c(exp.params, probes, n_quad=2 * n_quad))
    max_rel = float(np.max(np.abs(c_fine - c_base) / np.abs(c_fine)))

    np.savetxt(out / "chart.csv", np.column_stack((chart.k_grid, chart.c, chart.c_prime)),
               fmt="%.17g", delimiter=",", header="K,c,c_prime", comments="")
    _write_json(
        out / "chart_summary.json",
        {
            "delta": chart.delta,
            "k_min": chart.k_min,
            "k_max": chart.k_max,
            "n_k": cfg.n_k,
            "n_chi": cfg.n_chi,
            "convergence": {
                "n_quad": n_quad,
                "n_quad_doubled": 2 * n_quad,
                "max_rel_change": max_rel,
            },
        },
    )
    if max_rel > 1e-10:
        raise ConvergenceError(
            f"frequency quadrature changed by {max_rel:.3e} under node doubling"
        )
    return EXIT_OK


def _solver_gap(exp: Experiment) -> float:
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
    return worst


def cmd_evolve(exp: Experiment, out: Path, validate: bool) -> int:
    times = np.linspace(0.0, exp.cfg.t_max, exp.cfg.evolve_samples)
    s = exp.node_set.series(times)
    t, x = np.meshgrid(s.times, s.x, indexing="ij")
    rows = np.column_stack([a.ravel() for a in (t, x, s.rho, s.j, s.phi, s.phi_t)])
    np.savetxt(out / "evolve.csv", rows, fmt="%.17g", delimiter=",",
               header="t,x,rho,j,phi,phi_t", comments="")

    if validate:
        worst = _solver_gap(exp)
        if worst > 1e-4:
            raise ConvergenceError(
                f"solver cross-validation failed: max |f_aa - f_char| = {worst:.3e}"
            )
    return EXIT_OK


def _self_test_report(mode: str) -> dict:
    times = np.geomspace(1.0, 1000.0, 400)
    if mode == "power-law":
        sup = times**-2.0
    elif mode == "oscillating":
        sup = times**-1.0 * (2.0 + np.sin(times))
    else:
        raise ConfigError(f"unknown self-test mode: {mode!r}")
    from .mixing import DecayReport

    report = DecayReport(times=times, sup_values=sup, tail_slopes=np.zeros_like(sup))
    fitted = fit_decay(report, (1.0, 1000.0))
    return {
        "mode": mode,
        "slope": fitted.slope,
        "residual": fitted.residual,
        "window": list(fitted.window),
    }


def _decay_payload(exp: Experiment) -> dict:
    period, times = exp.period, exp.times
    report = sup_phi_t(exp.node_set, times)
    fitted = fit_decay(report, exp.cfg.fit_window, period=period)

    early = report.sup_values[times <= period]
    late = report.sup_values[times >= exp.cfg.t_max - period]
    ratio = float(late.max() / early.max()) if early.max() > 0 else 0.0
    return {
        "slope": fitted.slope,
        "window": list(fitted.window),
        "residual": fitted.residual,
        "envelope": [[t, v] for t, v in zip(fitted.envelope_times, fitted.envelope)],
        "tail_slope": [[t, v] for t, v in zip(report.times, report.tail_slopes)],
        "late_early_ratio": ratio,
        "decays": bool(ratio < 0.8),
        "oscillation_period": period,
    }


def cmd_decay(exp: Experiment, out: Path, self_test: str | None) -> int:
    if self_test is not None:
        payload = _self_test_report(self_test)
        _write_json(out / "decay_selftest.json", payload)
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    payload = _decay_payload(exp)
    if exp.cfg.include_control:
        control_cfg = dataclasses.replace(exp.cfg, epsilon=0.0)
        control = _decay_payload(Experiment(control_cfg))
        payload["control"] = {
            "late_early_ratio": control["late_early_ratio"],
            "decays": control["decays"],
        }
    _write_json(out / "decay.json", payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validation suite


def _invariant_checks(exp: Experiment):
    """Yield (name, runner) pairs; each runner returns a result dict.

    The runners share ``exp``, so the chart is built at most once; a
    chart that fails to build fails each check that needs it.
    """
    cfg, params = exp.cfg, exp.params

    def result(name, tolerance, measured, passed=None):
        if passed is None:
            passed = bool(measured <= tolerance)
        return {
            "name": name,
            "tolerance": tolerance,
            "measured": float(measured),
            "passed": bool(passed),
        }

    def potential_round_trip():
        h = np.geomspace(1e-6, 1e3, 200)
        err = np.max(np.abs(potential_phi(params, invert_phi(params, h)) - h) / h)
        return result("potential_round_trip", 1e-12, err)

    def flow_reversibility():
        x1, v1 = flow_map(params, 1.0, 0.3, 10.0)
        x2, v2 = flow_map(params, x1, v1, -10.0)
        err = max(abs(x2 - 1.0), abs(v2 - 0.3))
        return result("flow_reversibility", 1e-8, err)

    def frequency_period_duality():
        worst = 0.0
        for h in (0.5, 1.0, 2.0):
            c = float(compute_c(params, h, n_quad=max(16, cfg.n_chi)))
            worst = max(worst, abs(c * orbit_period(params, h) - 2 * np.pi) / (2 * np.pi))
        return result("frequency_period_duality", 1e-6, worst)

    def c_prime_vs_fd():
        worst = 0.0
        step = 1e-4
        for h in (0.5, 1.0, 2.0):
            fd = (compute_c(params, h + step) - compute_c(params, h - step)) / (2 * step)
            worst = max(worst, abs(float(compute_c_prime(params, h)) - float(fd)))
        return result("c_prime_vs_fd", 1e-6, worst)

    def chart_checks():
        chart = exp.chart
        geom = np.max(np.abs(chart.q_from_chi(np.pi / 2, chart.k_grid) - np.pi / 2))
        chi = np.linspace(-3.0, 3.0, 41)
        ks = np.linspace(chart.k_min, chart.k_max, 11)[:, None]
        rt = np.max(np.abs(chart.chi_from_q(chart.q_from_chi(chi, ks), ks) - chi))
        return result("chart_geometry_roundtrip", 1e-9, max(geom, rt))

    def chart_convergence():
        chart = exp.chart
        fine = build_chart(
            params, chart.k_min, chart.k_max, n_k=2 * cfg.n_k, n_chi=2 * cfg.n_chi
        )
        ks = np.linspace(chart.k_min, chart.k_max, 17)
        chi = np.linspace(0.1, 3.0, 13)[:, None]
        dq = np.max(np.abs(chart.q_from_chi(chi, ks) - fine.q_from_chi(chi, ks)))
        dc = np.max(np.abs(chart.c_of_k(ks) - fine.c_of_k(ks)))
        return result("chart_convergence", 1e-9, max(float(dq), float(dc)))

    @functools.cache
    def gauss_grid():
        """Node set on a 201-point Gauss grid, shared by the two mass checks."""
        nodes, weights = leggauss(201)
        x_max = float(invert_phi(params, exp.f0.h_max))
        return MomentCalculator(exp.f0, x_max * nodes, n_quad=cfg.v_quad), x_max, weights

    def jacobian_mass():
        f0 = exp.f0
        calc, x_max, grid_weights = gauss_grid()
        mass_xv = x_max * float(calc.density(0.0) @ grid_weights)
        k_nodes, k_weights = leggauss(128)
        k = 0.5 * (f0.h_min + f0.h_max) + 0.5 * (f0.h_max - f0.h_min) * k_nodes
        integrand = f0.bump(k) / exp.chart.c_of_k(k)
        mass_qk = 2.0 * np.pi * 0.5 * (f0.h_max - f0.h_min) * float(integrand @ k_weights)
        err = abs(mass_xv - mass_qk) / abs(mass_qk)
        return result("jacobian_mass_equivalence", 1e-6, err)

    def mass_conservation():
        calc, x_max, weights = gauss_grid()
        m0, m50 = (x_max * float(rho @ weights) for rho in calc.density(np.array([0.0, 50.0])))
        err = abs(m50 - m0) / abs(m0)
        return result("mass_conservation", 1e-6, err)

    def cross_solver():
        return result("cross_solver_equivalence", 1e-4, _solver_gap(exp))

    def phi_t_routes():
        # 512 velocity nodes: the quadrature floor must sit below the
        # O(dt**2) difference for the convergence ratio to be visible.
        calc = MomentCalculator(exp.f0, spatial_grid(params, cfg.c_s, 801), n_quad=512)
        t = 5.0
        ref = calc.phi_t_reconstruct(t)
        err = [float(np.max(np.abs(calc.phi_t_fd(t, dt) - ref))) for dt in (2e-3, 1e-3)]
        ratio = err[0] / err[1] if err[1] > 0 else np.inf
        return result("phi_t_route_equivalence", 0.0, ratio, passed=3.0 <= ratio <= 5.0)

    def spectrum_translation():
        f0 = exp.f0
        k_mid = 0.5 * (f0.h_min + f0.h_max)
        s0 = q_fourier_spectrum(f0, 0.0, k_mid)
        s1 = q_fourier_spectrum(f0, 10.0, k_mid)
        mod = float(np.max(np.abs(np.abs(s1.coefficients) - np.abs(s0.coefficients))))
        c = float(f0.chart.c_of_k(k_mid))
        k_mode = f0.m
        expected = (k_mode * c * 10.0) % (2 * np.pi)
        got = float(
            np.angle(s1.coefficients[k_mode] / s0.coefficients[k_mode]) % (2 * np.pi)
        )
        phase_err = abs((got - expected + np.pi) % (2 * np.pi) - np.pi)
        return result("spectrum_translation", 1e-8, max(mod, phase_err))

    yield from [
        ("potential_round_trip", potential_round_trip),
        ("flow_reversibility", flow_reversibility),
        ("frequency_period_duality", frequency_period_duality),
        ("c_prime_vs_fd", c_prime_vs_fd),
        ("chart_geometry_roundtrip", chart_checks),
        ("chart_convergence", chart_convergence),
        ("jacobian_mass_equivalence", jacobian_mass),
        ("mass_conservation", mass_conservation),
        ("cross_solver_equivalence", cross_solver),
        ("phi_t_route_equivalence", phi_t_routes),
        ("spectrum_translation", spectrum_translation),
    ]


def cmd_validate(exp: Experiment, out: Path, list_only: bool) -> int:
    checks = list(_invariant_checks(exp))
    if list_only:
        for name, _ in checks:
            print(name)
        return EXIT_OK
    results = []
    for name, runner in checks:
        try:
            res = runner()
        except Exception as exc:  # a crash counts as a failed invariant
            res = {"name": name, "tolerance": None, "measured": None,
                   "passed": False, "error": str(exc)}
        results.append(res)
        status = "pass" if res["passed"] else "FAIL"
        print(f"{status}  {name}  measured={res['measured']}")
    _write_json(out / "validate.json", {"checks": results})
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_INVARIANT


# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasemix",
        description="Phase-mixing experiments for 1D transport in a quartic trap",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("chart", "evolve", "decay", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", action="append", dest="overrides", metavar="KEY=VALUE",
                       help="override a config key (JSON-encoded value)")
        if name == "evolve":
            p.add_argument("--validate", action="store_true",
                           help="cross-check the two solution routes")
        if name == "decay":
            p.add_argument("--self-test", dest="self_test",
                           choices=["power-law", "oscillating"],
                           help="fit a synthetic series with known exponent")
        if name == "validate":
            p.add_argument("--list", action="store_true", dest="list_only",
                           help="enumerate checks without running them")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        exp = Experiment(load_config(args.config, args.overrides))
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
        if args.command == "chart":
            return cmd_chart(exp, out)
        if args.command == "evolve":
            return cmd_evolve(exp, out, args.validate)
        if args.command == "decay":
            return cmd_decay(exp, out, args.self_test)
        return cmd_validate(exp, out, args.list_only)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FitError, ChartError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
