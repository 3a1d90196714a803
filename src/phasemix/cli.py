"""Command-line front end: ``phasemix chart|evolve|decay|validate``.

Configuration is a single JSON document; command-line ``--set key=value``
pairs override file keys.  Grids and series are emitted as CSV with a
header row and 17-significant-digit decimals, reports as JSON, so any
plotting stack can consume them.  Runs are deterministic for a fixed
config (fixed formatting, fixed seed).

Exit codes: 0 success, 1 failed invariant (validate), 2 configuration
error, 3 convergence or fit failure (an under-resolved chart or node set
included).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import checks
from .action_angle import ChartError, compute_c
from .experiment import ConfigError, Experiment, ExperimentConfig, ResolutionError
from .mixing import FitError, fit_decay, sup_phi_t
# Unused here: perfbench's tracer test checks that the tracer rebinds this name.
from .transport import evaluate_f_actionangle  # noqa: F401

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
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
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
    c_base = compute_c(exp.params, probes, n_quad=n_quad)
    c_fine = compute_c(exp.params, probes, n_quad=2 * n_quad)
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


def cmd_evolve(exp: Experiment, out: Path, validate: bool) -> int:
    # The cross-check needs no node set, so it runs first: a config that
    # fails it exits on its gap, not on a node set that may not resolve.
    if validate:
        gap, tolerance = checks.cross_solver_equivalence(exp)
        if gap > tolerance:
            raise ConvergenceError(
                f"solver cross-validation failed: max |f_aa - f_char| = {gap:.3e}"
            )
    calc = exp.node_set
    times = np.linspace(0.0, exp.cfg.t_max, exp.cfg.evolve_samples)
    rho, j = calc.density(times), calc.current(times)
    t, x = np.meshgrid(times, calc.x, indexing="ij")
    columns = (t, x, rho, j, calc.potential_of(rho), calc.phi_t_of(j))
    rows = np.column_stack([a.ravel() for a in columns])
    np.savetxt(out / "evolve.csv", rows, fmt="%.17g", delimiter=",",
               header="t,x,rho,j,phi,phi_t", comments="")
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


def cmd_validate(exp: Experiment, out: Path, list_only: bool) -> int:
    if list_only:
        for check in checks.CHECKS:
            print(check.__name__)
        return EXIT_OK
    results = []
    for check in checks.CHECKS:
        res = checks.run(check, exp)
        results.append(res)
        status = "pass" if res["passed"] else "FAIL"
        print(f"{status}  {res['name']}  measured={res['measured']}")
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
    except (ConvergenceError, FitError, ChartError, ResolutionError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
