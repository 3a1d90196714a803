"""Command-line front end: ``phasemix chart|evolve|decay|validate``.

Configuration is a single JSON document; command-line ``--set key=value``
pairs override file keys.  Grids and series are emitted as CSV with a
header row and 17-significant-digit decimals, reports as JSON, so any
plotting stack can consume them.  Runs are deterministic for a fixed
config (fixed formatting, fixed seed).

Reports are written one top-level key per line, each value compact.

Exit codes: 0 success, 1 failed invariant (validate), 2 configuration
error or a malformed command line, 3 convergence or fit failure (an
under-resolved chart or node set included).
"""

from __future__ import annotations

import dataclasses
import getopt
import json
import sys
from pathlib import Path

import numpy as np

from . import checks
from .action_angle import ChartError, exact_frequency
from .experiment import ConfigError, Experiment, ExperimentConfig, ResolutionError
from .mixing import FitError, fit_decay, sup_phi_t
# Unused here: perfbench's tracer test checks that the tracer rebinds this name.
from .transport import evaluate_f_actionangle  # noqa: F401

__all__ = ["ConvergenceError", "load_config", "main"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3

# ``decays`` holds when the late/early ratio of sup|phi_t| is below this.
DECAY_RATIO = 0.8


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
    # One top-level key per line.  Without ``indent`` json.dumps takes the
    # C encoder, which writes the same values and float text.
    lines = (f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(payload.items()))
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_chart(exp: Experiment, out: Path) -> int:
    cfg, chart = exp.cfg, exp.chart
    c_prime = exact_frequency(exp.params, chart.k_grid)[1]
    # The energy table's error, where the spline is furthest from its nodes.
    mid = 0.5 * (chart.k_grid[1:] + chart.k_grid[:-1])
    exact = exact_frequency(exp.params, mid)[0]
    np.savetxt(out / "chart.csv", np.column_stack((chart.k_grid, chart.c, c_prime)),
               fmt="%.17g", delimiter=",", header="K,c,c_prime", comments="")
    _write_json(
        out / "chart_summary.json",
        {
            "delta": float(c_prime.min()),
            "k_min": chart.k_min,
            "k_max": chart.k_max,
            "n_k": cfg.n_k,
            "n_chi": cfg.n_chi,
            "modes": int(chart.modes.size),
            "last_mode": chart.last_mode,
            # The relative error of c against the closed form: the chart's
            # c at its grid energies, which build_chart gates, and c_of_k
            # at the midpoints of the energy intervals.
            "c_error": {
                "n_quad": cfg.n_chi,
                "grid": chart.c_error,
                "midpoints": float(np.max(np.abs(chart.c_of_k(mid) - exact) / exact)),
            },
        },
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
    t, x = np.meshgrid(times, calc.x, indexing="ij")
    columns = (t, x, *calc.fields(times))
    rows = np.column_stack([a.ravel() for a in columns])
    np.savetxt(out / "evolve.csv", rows, fmt="%.17g", delimiter=",",
               header="t,x,rho,j,phi,phi_t", comments="")
    return EXIT_OK


# The synthetic series of ``decay --self-test``, by mode.
_SELF_TESTS = {
    "power-law": lambda times: times**-2.0,
    "oscillating": lambda times: times**-1.0 * (2.0 + np.sin(times)),
}


def _self_test_report(mode: str) -> dict:
    times = np.geomspace(1.0, 1000.0, 400)
    sup = _SELF_TESTS[mode](times)
    window = (1.0, 1000.0)
    fitted = fit_decay(times, sup, window)
    return {
        "mode": mode,
        "slope": fitted.slope,
        "residual": fitted.residual,
        "window": list(window),
    }


def _late_early_ratio(exp: Experiment, times: np.ndarray, sup: np.ndarray) -> float:
    """Largest sup|phi_t| over the last period against the first."""
    early = sup[times <= exp.period]
    late = sup[times >= exp.cfg.t_max - exp.period]
    if not late.size:
        raise ConvergenceError(
            f"no decay sample time in the last period ({exp.period:.6g}) before t_max: "
            f"samples_per_period = {exp.cfg.samples_per_period:g} is too sparse; raise it"
        )
    return float(late.max() / early.max()) if early.max() > 0 else 0.0


def _decay_payload(exp: Experiment) -> dict:
    times = exp.times
    sup, tail = sup_phi_t(exp.node_set, times)
    fitted = fit_decay(times, sup, exp.cfg.fit_window, period=exp.period)
    ratio = _late_early_ratio(exp, times, sup)
    return {
        "slope": fitted.slope,
        "window": list(exp.cfg.fit_window),
        "residual": fitted.residual,
        "envelope": np.column_stack((fitted.envelope_times, fitted.envelope)).tolist(),
        "tail_slope": np.column_stack((times, tail)).tolist(),
        "late_early_ratio": ratio,
        "decays": bool(ratio < DECAY_RATIO),
        "oscillation_period": exp.period,
    }


def cmd_decay(exp: Experiment, out: Path, self_test: str | None) -> int:
    if self_test is not None:
        payload = _self_test_report(self_test)
        _write_json(out / "decay_selftest.json", payload)
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    payload = _decay_payload(exp)
    if exp.cfg.include_control:
        control = Experiment(dataclasses.replace(exp.cfg, epsilon=0.0))
        times = control.times
        ratio = _late_early_ratio(control, times, sup_phi_t(control.node_set, times)[0])
        payload["control"] = {"late_early_ratio": ratio, "decays": bool(ratio < DECAY_RATIO)}
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


_USAGE = f"""\
usage: phasemix COMMAND [--config FILE] [--out DIR] [--set KEY=VALUE]... [OPTION]

Phase-mixing experiments for 1D transport in a quartic trap.

commands:
  chart             tabulate K, c(K), c'(K)    -> chart.csv, chart_summary.json
  evolve            rho, j, phi, phi_t series   -> evolve.csv
  decay             sup|phi_t| envelope fit     -> decay.json
  validate          run the invariant checks    -> validate.json

options:
  -h, --help        show this message and exit
  --config FILE     path to a JSON config file
  --out DIR         output directory (default: .)
  --set KEY=VALUE   override a config key (JSON-encoded value); repeatable
  --validate        evolve: cross-check the two solution routes
  --self-test MODE  decay: fit a synthetic series with known exponent
                    (MODE: {", ".join(_SELF_TESTS)})
  --list            validate: enumerate checks without running them"""

# Each subcommand's own long options, in getopt's spelling ("=" takes a value).
_OPTIONS = {
    "chart": [],
    "evolve": ["validate"],
    "decay": ["self-test="],
    "validate": ["list"],
}
_SHARED_OPTIONS = ["config=", "out=", "set=", "help"]


def _parse(argv: list[str]) -> tuple[str | None, dict]:
    """The subcommand and its options; the subcommand is None for a request
    for help.  Raises ``getopt.GetoptError`` on a malformed command line."""
    pairs, rest = getopt.getopt(argv, "h", ["help"])
    if pairs:
        return None, {}
    if not rest:
        raise getopt.GetoptError("a command is required")
    command = rest[0]
    if command not in _OPTIONS:
        raise getopt.GetoptError(f"unknown command {command!r}")
    pairs, extra = getopt.gnu_getopt(rest[1:], "h", _SHARED_OPTIONS + _OPTIONS[command])
    if extra:
        raise getopt.GetoptError(f"unexpected argument {extra[0]!r}")
    options = {"config": None, "out": ".", "set": [],
               "validate": False, "self-test": None, "list": False}
    for flag, value in pairs:
        name = flag.lstrip("-")
        if name in ("h", "help"):
            return None, {}
        if name == "set":
            options["set"].append(value)
        elif name in ("validate", "list"):
            options[name] = True
        elif name == "self-test" and value not in _SELF_TESTS:
            raise getopt.GetoptError(
                f"--self-test: invalid choice {value!r} (choose from {', '.join(_SELF_TESTS)})"
            )
        else:
            options[name] = value
    return command, options


def main(argv: list[str] | None = None) -> int:
    try:
        command, options = _parse(sys.argv[1:] if argv is None else argv)
    except getopt.GetoptError as exc:
        print(f"{_USAGE}\n\nphasemix: error: {exc.msg}", file=sys.stderr)
        return EXIT_CONFIG
    if command is None:
        print(_USAGE)
        return EXIT_OK
    try:
        exp = Experiment(load_config(options["config"], options["set"]))
        out = Path(options["out"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
        if command == "chart":
            return cmd_chart(exp, out)
        if command == "evolve":
            return cmd_evolve(exp, out, options["validate"])
        if command == "decay":
            return cmd_decay(exp, out, options["self-test"])
        return cmd_validate(exp, out, options["list"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, FitError, ChartError, ResolutionError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
