"""CLI commands: config handling, artifacts, determinism, exit codes."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import phasemix
from phasemix.action_angle import exact_frequency
from phasemix.cli import _parse, load_config, main
from phasemix.experiment import ConfigError, Experiment, ExperimentConfig
from phasemix.moments import series_order


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


# -- configuration ----------------------------------------------------------


def test_default_config_valid():
    cfg = ExperimentConfig()
    assert cfg.epsilon == 0.1 and cfg.c_s == 0.5 and cfg.m == 1


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(c_s=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=1.0)
    with pytest.raises(ConfigError, match="alpha"):
        ExperimentConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(fit_window=(50.0, 20.0))


def test_config_is_frozen():
    # A config changed after its experiment cached a chart or node set
    # would describe a run other than the one the cache holds, and would
    # skip validation.
    exp = Experiment(ExperimentConfig())
    exp.f0
    with pytest.raises(AttributeError):
        exp.cfg.c_s = 0.3
    with pytest.raises(AttributeError):
        exp.cfg.c_s = 5.0
    assert exp.cfg == ExperimentConfig()
    assert exp.cfg.fit_window == (20.0, 200.0)


def test_config_round_trip():
    cfg = ExperimentConfig(epsilon=0.05, t_max=40.0, fit_window=(5.0, 40.0))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


@st.composite
def valid_configs(draw):
    """Configs inside every bound, with a fit window inside (0, t_max]."""
    lo = draw(st.floats(1e-3, 1e3))
    hi = lo + draw(st.floats(1e-3, 1e3))
    n = st.integers
    return ExperimentConfig(
        epsilon=draw(st.floats(0.0, 100.0)),
        c_s=draw(st.floats(0.02, 0.95)),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        m=draw(n(1, 16)),
        n_k=draw(n(4, 1024)),
        n_chi=2 * draw(n(4, 512)),
        grid_points=2 * draw(n(1, 2047)) + 1,
        v_quad=draw(n(64, 1024)),
        t_max=hi + draw(st.floats(0.0, 1e3)),
        samples_per_period=draw(st.floats(1e-3, 64.0)),
        fit_window=(lo, hi),
        evolve_samples=draw(n(1, 256)),
        include_control=draw(st.booleans()),
        seed=draw(n(0, 2**32)),
    )


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(valid_configs())
def test_config_json_round_trip(cfg):
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"no_such_key": 1})
    with pytest.raises(ConfigError, match="unknown config key: 'nonsense'"):
        load_config(None, ["nonsense=1"])


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilon": 0.05}))
    cfg = load_config(str(path), ["t_max=40", "fit_window=[5, 40]"])
    assert cfg.epsilon == 0.05 and cfg.t_max == 40.0
    assert cfg.fit_window == (5.0, 40.0)


def test_load_config_override_order_irrelevant(tmp_path):
    # Cross-field validation must apply to the merged result, not to
    # each intermediate state.
    cfg = load_config(None, ["t_max=40", "fit_window=[5, 40]"])
    cfg2 = load_config(None, ["fit_window=[5, 40]", "t_max=40"])
    assert cfg == cfg2


def test_bad_override_exit_code(tmp_path):
    assert run(tmp_path, "chart", "--set", "epsilon=-3") == 2
    assert run(tmp_path, "chart", "--set", "nonsense=1") == 2
    assert run(tmp_path, "chart", "--set", "epsilon") == 2


@pytest.mark.parametrize(
    "command, override",
    [
        ("evolve", "v_quad=10"),
        ("decay", "grid_points=2"),
        ("decay", "grid_points=200"),
        ("chart", "n_k=3"),
        ("chart", "n_chi=7"),
        ("chart", "n_chi=6"),
        ("evolve", "m=1.5"),
        ("evolve", "epsilon=NaN"),
        ("evolve", "c_s=NaN"),
        ("evolve", "alpha=NaN"),
        ("validate", "alpha=0"),
        ("decay", "t_max=Infinity"),
        ("decay", "samples_per_period=NaN"),
        ("evolve", "evolve_samples=0"),
        ("evolve", "evolve_samples=2.5"),
        ("evolve", "v_quad=128.5"),
        ("chart", "n_k=64.5"),
        ("chart", "n_chi=512.0"),
        ("decay", "grid_points=201.0"),
        ("decay", 'fit_window=[1,"a"]'),
        ("decay", 'fit_window=["5","60"]'),
        ("decay", 'include_control="yes"'),
        ("chart", "seed=-1"),
        ("chart", "seed=1.5"),
        ("chart", "epsilon=true"),
        # Work bounds: each is rejected before anything of its size is
        # allocated (the decay schedule after the default chart only).
        ("chart", "n_k=100000000"),
        ("chart", "n_chi=1048576"),
        ("decay", "grid_points=40001"),
        ("evolve", "v_quad=100000"),
        ("evolve", "evolve_samples=1000000"),
        ("decay", "t_max=1e9"),
        ("decay", "samples_per_period=1e300"),
        # An integer m that no float holds.
        ("decay", "m=1" + "0" * 400),
    ],
)
def test_bad_value_exit_code(tmp_path, command, override):
    assert run(tmp_path, command, "--set", override) == 2


def test_resolved_config_within_work_bounds():
    # The resolved long scan: 1601 grid points x 1024 velocity nodes,
    # 17 samples per period up to t = 2000.
    cfg = ExperimentConfig(grid_points=1601, v_quad=1024, t_max=2000.0,
                           samples_per_period=17.0, fit_window=(20.0, 2000.0))
    assert Experiment(cfg).times.size == 6188


# At eps = 100, c_s = 0.1 eight angle nodes end the series on a mode of
# 0.18, above the tail floor, so the chart build raises ChartError.
UNRESOLVED_CHART = ("--set", "epsilon=100", "--set", "c_s=0.1", "--set", "n_chi=8")


@pytest.mark.parametrize("command", ["chart", "evolve", "decay"])
def test_unresolved_chart_exit_code(tmp_path, command):
    assert run(tmp_path, command, *UNRESOLVED_CHART) == 3


@pytest.mark.parametrize("overrides", [
    ("epsilon=10", "c_s=0.05"),
    ("epsilon=100", "c_s=0.1", "n_chi=1024"),
])
def test_every_subcommand_refuses_an_unconverged_chart(tmp_path, capsys, overrides):
    # The last kept mode passes the tail floor, but c errs from the closed
    # form by more than 1e-10.  chart, evolve and decay exit 3 on
    # build_chart's message; validate fails the checks that need the chart.
    argv = [arg for item in overrides for arg in ("--set", item)]
    for command in ("chart", "evolve", "decay"):
        assert run(tmp_path, command, *argv) == 3
    messages = set(capsys.readouterr().err.splitlines())
    assert len(messages) == 1 and "from the closed form" in messages.pop()
    assert run(tmp_path, "validate", *argv) == 1
    assert not list(tmp_path.glob("*.csv")) and not (tmp_path / "decay.json").exists()


def test_truncated_chart_exit_code(tmp_path, capsys):
    # 512 angle nodes (the default) end this chart's series on a mode of
    # 1.4e-5, above the tail floor: truncated.
    assert run(tmp_path, "chart", "--set", "epsilon=100", "--set", "c_s=0.1") == 3
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("override, code", [
    pytest.param(override, code, id=override) for override, code in
    [("epsilon=1e308", 2), ("epsilon=1e160", 3), ("c_s=5e-324", 2), ("c_s=1e-300", 3)]
])
@pytest.mark.parametrize("command", ["chart", "decay"])
def test_non_finite_chart_exit_code(tmp_path, capsys, command, override, code):
    # At epsilon = 1e308 and c_s = 5e-324 the closed form of c' overflows
    # over the chart's energy range, so the chart's tables would overflow to
    # inf and NaN: the config is rejected (exit 2) before any array is
    # built.  At epsilon = 1e160 and c_s = 1e-300 nothing the pipeline
    # computes overflows, and the chart refuses its own tables as truncated
    # (exit 3) before it builds their spline, which would overflow.
    # Either way no NumPy warning, and nothing written.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, command, "--set", override) == code
    err = capsys.readouterr().err
    reason = "overflow" if code == 2 else "angle map truncated"
    assert reason in err and "RuntimeWarning" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("epsilon, c_s", [(0.1, 0.5), (100.0, 0.1), (1.0, 0.02), (1e-300, 0.5)])
def test_config_accepts_representable_potential(epsilon, c_s):
    # Underflow (epsilon = 1e-300) is harmless and must not raise.
    ExperimentConfig(epsilon=epsilon, c_s=c_s)


def test_uncreatable_out_dir_exit_code(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["chart", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("cannot create output directory" in line for line in err)


# -- command line -----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["decay", "--bogus"],
    ["chart", "--list"],
    ["decay", "--validate"],
    ["validate", "--self-test", "power-law"],
    ["decay", "--self-test", "bogus"],
    ["decay", "stray"],
    ["decay", "--set"],
    ["decay", "--se", "epsilon=0.2"],
    ["evolve", "--validate=yes"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_malformed_command_line_exit_code(tmp_path, capsys, argv):
    # Rejected before the output directory is made, usage and reason on stderr.
    out = tmp_path / "out"
    if argv:
        argv = [argv[0], "--out", str(out), *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: phasemix") and "phasemix: error: " in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["decay", "--help"],
                                  ["validate", "--list", "-h"]], ids=" ".join)
def test_help_exit_code(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: phasemix")


def test_command_line_forms_agree():
    forms = [
        ["decay", "--set=epsilon=0.2", "--set", "m=2", "--out", "res", "--self-test", "power-law"],
        ["decay", "--out", "res", "--set", "epsilon=0.2", "--self=power-law", "--set=m=2"],
        ["decay", "--self-test=power-law", "--out=res", "--set", "epsilon=0.2", "--set", "m=2"],
    ]
    parsed = [_parse(argv) for argv in forms]
    assert all(p == parsed[0] for p in parsed)
    command, options = parsed[0]
    assert command == "decay" and options["out"] == "res" and options["self-test"] == "power-law"
    cfg = load_config(options["config"], options["set"])
    assert (cfg.epsilon, cfg.m) == (0.2, 2)


# -- chart ------------------------------------------------------------------


def test_chart_artifacts(tmp_path, chart):
    assert run(tmp_path, "chart") == 0
    with open(tmp_path / "chart.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["K", "c", "c_prime"]
    assert len(rows) == 1 + 64
    k, c, cp = (np.array([float(r[i]) for r in rows[1:]]) for i in range(3))
    assert np.all(np.diff(k) > 0) and np.all(cp > 0) and np.all(c >= 1.0)
    # c' and delta come from exact_frequency, the function c_prime_vs_fd checks.
    c_prime = exact_frequency(chart.params, chart.k_grid)[1]
    assert np.array_equal(k, chart.k_grid) and np.array_equal(cp, c_prime)
    summary = json.loads((tmp_path / "chart_summary.json").read_text())
    assert summary["delta"] == c_prime.min() > 0
    # The error of c against the closed form: build_chart's gate at the
    # grid energies, and the energy table's between them.
    c_error = summary["c_error"]
    assert c_error["n_quad"] == 512 and c_error["grid"] == chart.c_error < 1e-10
    mid = 0.5 * (chart.k_grid[1:] + chart.k_grid[:-1])
    exact = exact_frequency(chart.params, mid)[0]
    assert c_error["midpoints"] == np.max(np.abs(chart.c_of_k(mid) - exact) / exact)
    assert 1e-10 < c_error["midpoints"] < 1e-9
    # The truncation: the kept modes (2, 4, ..., 40 by default) and the
    # last one's magnitude, which the chart's 1e-6 tail floor checks.
    assert summary["modes"] == chart.modes.size == 20
    assert summary["last_mode"] == chart.last_mode
    assert 0 < summary["last_mode"] <= 1e-6


def test_chart_delta_is_the_exact_twist_at_k_max(tmp_path):
    # At epsilon = 100 the twist c' falls with K, so delta is c'(K_max),
    # which an orbit average on 256 angles misses by 2.6 %.
    argv = ("--set", "epsilon=100", "--set", "c_s=0.1", "--set", "n_chi=2048")
    assert run(tmp_path, "chart", *argv) == 0
    summary = json.loads((tmp_path / "chart_summary.json").read_text())
    params, k_max = Experiment(load_config(None, list(argv[1::2]))).params, summary["k_max"]
    assert k_max == 10.5
    assert summary["delta"] == exact_frequency(params, np.array([k_max]))[1][0]
    np.testing.assert_allclose(summary["delta"], 0.19262014242555053, rtol=1e-14)


def test_chart_deterministic(tmp_path):
    run(tmp_path / "a", "chart")
    run(tmp_path / "b", "chart")
    assert (tmp_path / "a" / "chart.csv").read_text() == (
        tmp_path / "b" / "chart.csv"
    ).read_text()


# -- evolve -----------------------------------------------------------------

EVOLVE_ARGS = (
    "evolve",
    "--set", "t_max=10",
    "--set", "fit_window=[2, 10]",
    "--set", "evolve_samples=3",
    "--set", "grid_points=51",
    "--set", "v_quad=64",
)


def test_evolve_artifacts(tmp_path):
    assert run(tmp_path, *EVOLVE_ARGS) == 0
    with open(tmp_path / "evolve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "rho", "j", "phi", "phi_t"]
    assert len(rows) == 1 + 3 * 51
    times = sorted({float(r[0]) for r in rows[1:]})
    assert times == [0.0, 5.0, 10.0]


def test_evolve_csv_holds_the_node_set_moments(tmp_path):
    # %.17g round-trips a float64, so each column equals its moment exactly:
    # on the trig route (3 times) and on the series route (100 times to
    # t = 200, P = 43).
    series_args = ("evolve", "--set", "evolve_samples=100", "--set", "grid_points=51",
                   "--set", "v_quad=64")
    for argv, order in ((EVOLVE_ARGS, 0), (series_args, 43)):
        assert run(tmp_path, *argv) == 0
        rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
        exp = Experiment(load_config(None, list(argv[2::2])))
        calc = exp.node_set
        times = np.linspace(0.0, exp.cfg.t_max, exp.cfg.evolve_samples)
        assert series_order(calc, times) == order
        expected = (np.tile(calc.x, times.size), calc.density(times), calc.fields(times)[1],
                    calc.potential(times), calc.phi_t(times))
        for column, moment in zip(rows.T[1:], expected):
            np.testing.assert_array_equal(column, moment.ravel())


def test_evolve_csv_potentials_integrate_its_columns(tmp_path):
    # Independent of the node set: phi = -int_0^x int_0^y rho and
    # phi_t = int_0^x (j - j(0)) by SciPy's cumulative Simpson of the file's
    # own rho and j, taken outward from x = 0 on each half of the grid.
    from scipy.integrate import cumulative_simpson

    assert run(tmp_path, *EVOLVE_ARGS) == 0
    rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
    _, x, rho, j, phi, phi_t = rows.T.reshape(6, 3, 51)
    x, i0 = x[0], 25

    def from_zero(y):
        right = cumulative_simpson(y[:, i0:], x=x[i0:], initial=0.0)
        left = cumulative_simpson(y[:, i0::-1], x=-x[i0::-1], initial=0.0)
        return np.concatenate((-left[:, :0:-1], right), axis=1)

    for got, ref in ((phi, -from_zero(from_zero(rho))), (phi_t, from_zero(j - j[:, i0, None]))):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("extra", [("evolve_samples=100",), ("m=2",)])
def test_evolve_csv_has_no_negative_zero_moment(tmp_path, extra):
    # The grid ends x = +-x_max hold no support node, so rho and j are 0
    # there: 100 times take the series route, which summed them to -0.0,
    # and at m = 2 the current's reflection to x < 0 has sign -1.  phi and
    # phi_t are 0 at x = 0.
    sets = ("grid_points=51", "v_quad=64", *extra)
    assert run(tmp_path, "evolve", *(a for kv in sets for a in ("--set", kv))) == 0
    with open(tmp_path / "evolve.csv") as fh:
        rows = list(csv.reader(fh))
    cols = [rows[0].index(name) for name in ("rho", "j", "phi", "phi_t")]
    assert not [r for r in rows[1:] if "-0" in (r[c] for c in cols)]
    j = rows[0].index("j")
    assert any(r[j] == "0" for r in rows[1:])


def test_evolve_streams_each_amplitude_once(tmp_path, monkeypatch):
    # phi and phi_t are tables of the density and current rows evolve has
    # already streamed: two streams, not four.
    from phasemix import moments

    parts = []
    stream = moments.stream

    def counted(measure, times, amp, part, *args):
        parts.append(part)
        return stream(measure, times, amp, part, *args)

    monkeypatch.setattr(moments, "stream", counted)
    assert run(tmp_path, *EVOLVE_ARGS) == 0
    assert sorted(parts) == ["imag", "real"]


def test_evolve_cross_validates(tmp_path):
    assert run(tmp_path, *EVOLVE_ARGS, "--validate") == 0


# The support annulus [c_s, 1/c_s] is 2e-10 wide in energy, so the two
# solution routes' bump values part by 8.0e-2, above the 1e-4 tolerance.
SOLVER_GAP = ("--set", "c_s=0.9999999999", "--set", "evolve_samples=2")


def test_evolve_validate_fails_on_the_validate_check(tmp_path, capsys):
    # evolve --validate and validate run the same check with the same tolerance.
    assert run(tmp_path, "evolve", "--validate", *SOLVER_GAP) == 3
    err = capsys.readouterr().err
    assert "max |f_aa - f_char| = 7.972e-02" in err
    assert run(tmp_path, "validate", *SOLVER_GAP) == 1
    checks = {c["name"]: c for c in json.loads((tmp_path / "validate.json").read_text())["checks"]}
    cross = checks["cross_solver_equivalence"]
    assert not cross["passed"] and cross["tolerance"] == 1e-4
    assert f"max |f_aa - f_char| = {cross['measured']:.3e}" in err


# The support annulus [c_s, 1/c_s] is 2e-10 wide in energy: no node of the
# default node sets lands in it.
THIN_SUPPORT = ("--set", "c_s=0.9999999999")


@pytest.mark.parametrize("command", ["evolve", "decay"])
def test_unresolved_support_exit_code(tmp_path, capsys, command):
    assert run(tmp_path, command, *THIN_SUPPORT) == 3
    err = capsys.readouterr().err
    assert "no node of the grid_points = 201 grid x v_quad = 128 velocity nodes" in err
    assert not list(tmp_path.iterdir())


def _strict_checks(path):
    """validate.json's entries by name; NaN and Infinity, which strict JSON lacks, raise."""

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return {c["name"]: c for c in json.loads(path.read_text(), parse_constant=reject)["checks"]}


def test_validate_records_an_unresolved_support(tmp_path):
    assert run(tmp_path, "validate", *THIN_SUPPORT) == 1
    checks = _strict_checks(tmp_path / "validate.json")
    for name in ("jacobian_mass_equivalence", "mass_conservation"):
        assert not checks[name]["passed"]
        assert "no node of the grid_points = 201 grid x v_quad = 128" in checks[name]["error"]
    route = checks["phi_t_route_equivalence"]
    assert not route["passed"] and route["measured"] is None
    assert "no node of the 801-point grid x 512 velocity nodes" in route["error"]


def test_validate_records_an_unmodulated_datum(tmp_path, capsys):
    # At alpha = 0 the data has no mode m: both phi_t routes would be 0 and
    # the spectrum's mode m would have no phase, so validate could never
    # pass.  The config is rejected before anything is built.
    assert run(tmp_path, "validate", "--set", "alpha=0") == 2
    assert "alpha must lie in (0, 1)" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- decay ------------------------------------------------------------------


def test_decay_self_tests(tmp_path):
    assert run(tmp_path, "decay", "--self-test", "power-law") == 0
    report = json.loads((tmp_path / "decay_selftest.json").read_text())
    assert abs(report["slope"] + 2.0) < 1e-6
    assert run(tmp_path, "decay", "--self-test", "oscillating") == 0
    report = json.loads((tmp_path / "decay_selftest.json").read_text())
    assert abs(report["slope"] + 1.0) < 0.05


def test_reports_hold_one_top_level_key_per_line(tmp_path):
    assert run(tmp_path, "decay", "--self-test", "power-law") == 0
    text = (tmp_path / "decay_selftest.json").read_text()
    report = json.loads(text)
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(report) + 2
    for line, key in zip(lines[1:-1], sorted(report)):
        head, value = line.split(": ", 1)
        assert head == f'  "{key}"' and json.loads(value.rstrip(",")) == report[key]


def test_decay_short_run(tmp_path):
    code = run(
        tmp_path,
        "decay",
        "--set", "t_max=60",
        "--set", "fit_window=[5, 60]",
        "--set", "grid_points=101",
        "--set", "v_quad=64",
    )
    assert code == 0
    report = json.loads((tmp_path / "decay.json").read_text())
    for key in ("slope", "window", "residual", "envelope", "tail_slope", "decays"):
        assert key in report
    assert report["decays"] is True
    # The window starts before the asymptotic regime, so only the sign
    # of the trend is checked here; the calibrated fit lives in the
    # acceptance suite.
    assert report["slope"] < 0.0


def test_decay_fit_failure_exit_code(tmp_path):
    # A window with too few envelope points must exit 3, not crash.
    code = run(
        tmp_path,
        "decay",
        "--set", "t_max=15",
        "--set", "fit_window=[1, 15]",
        "--set", "grid_points=51",
        "--set", "v_quad=64",
        "--set", "samples_per_period=2",
    )
    assert code == 3


def test_decay_non_finite_series_exit_code(tmp_path, capsys, monkeypatch):
    # A non-finite sup|phi_t| in the fit window ends the run with exit 3,
    # naming its time, and writes no report.
    from phasemix import cli, mixing

    def sup_with_nan(calc, times):
        sup, tail = mixing.sup_phi_t(calc, times)
        sup[np.searchsorted(times, 50.0)] = np.nan
        return sup, tail

    monkeypatch.setattr(cli, "sup_phi_t", sup_with_nan)
    assert run(tmp_path, "decay") == 3
    err = capsys.readouterr().err
    assert "convergence error: value nan at t = " in err and "is not finite" in err
    assert not (tmp_path / "decay.json").exists()


def test_decay_control_needs_no_fit(tmp_path):
    # The control reports only its late/early ratio.  On [20, 64] its
    # period-2*pi envelope has 7 points, too few to fit, while the run's
    # own envelope has enough.
    code = run(tmp_path, "decay", "--set", "include_control=true",
               "--set", "fit_window=[20, 64]")
    assert code == 0
    control = json.loads((tmp_path / "decay.json").read_text())["control"]
    assert sorted(control) == ["decays", "late_early_ratio"]


@pytest.mark.parametrize("overrides", [
    # The run's own last period (5.49) holds no sample time at 0.4 per period,
    # and the control's (2 pi) none at 0.5, where the run's own holds one.
    ("samples_per_period=0.4",),
    ("samples_per_period=0.5", "include_control=true"),
], ids=["run", "control"])
def test_decay_without_a_late_sample_exit_code(tmp_path, capsys, overrides):
    argv = [arg for item in overrides for arg in ("--set", item)]
    assert run(tmp_path, "decay", *argv) == 3
    err = capsys.readouterr().err
    assert "convergence error: no decay sample time in the last period" in err
    assert "samples_per_period" in err and "Traceback" not in err
    assert not (tmp_path / "decay.json").exists()


@st.composite
def small_decay_configs(draw):
    """Small decay configs inside the config checks, sparse schedules included."""
    t_max = draw(st.floats(1.0, 200.0))
    lo = t_max * draw(st.floats(0.01, 0.9))
    return {
        "epsilon": draw(st.floats(0.0, 10.0)),
        "c_s": draw(st.floats(0.05, 0.95)),
        "m": draw(st.integers(1, 8)),
        "grid_points": 2 * draw(st.integers(1, 25)) + 1,
        "v_quad": 64,
        "t_max": t_max,
        "samples_per_period": draw(st.floats(0.2, 4.0)),
        "fit_window": [lo, draw(st.floats(lo, t_max, exclude_min=True))],
        "include_control": draw(st.booleans()),
    }


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(small_decay_configs())
@example({"samples_per_period": 0.4})
@example({"samples_per_period": 0.5, "include_control": True})
def test_decay_exits_with_a_documented_code(tmp_path_factory, overrides):
    argv = [arg for key, value in overrides.items()
            for arg in ("--set", f"{key}={json.dumps(value)}")]
    out = tmp_path_factory.mktemp("decay")
    assert main(["decay", "--out", str(out), *argv]) in (0, 2, 3)


# -- validate ---------------------------------------------------------------


def test_validate_list(tmp_path, capsys):
    assert run(tmp_path, "validate", "--list") == 0
    out = capsys.readouterr().out
    assert "cross_solver_equivalence" in out


def test_validate_records_an_unresolved_chart_per_check(tmp_path):
    # The chart is built lazily, so checks that do not need it still run
    # and report, and each check that does records the build failure.
    assert run(tmp_path, "validate", *UNRESOLVED_CHART) == 1
    checks = {c["name"]: c for c in json.loads((tmp_path / "validate.json").read_text())["checks"]}
    assert len(checks) == 11
    assert checks["potential_round_trip"]["passed"]
    # c_prime_vs_fd runs too, and finds that the full-circle rule's
    # 256 angles do not resolve c at epsilon = 100: their difference
    # quotient is 9.3e-4 from the exact c'.
    assert "error" not in checks["c_prime_vs_fd"] and not checks["c_prime_vs_fd"]["passed"]
    assert abs(checks["c_prime_vs_fd"]["measured"] - 9.289e-4) < 1e-7
    chart_checks = [
        "chart_geometry_roundtrip",
        "chart_convergence",
        "jacobian_mass_equivalence",
        "mass_conservation",
        "cross_solver_equivalence",
        "phi_t_route_equivalence",
        "spectrum_translation",
    ]
    for name in chart_checks:
        assert not checks[name]["passed"]
        assert "truncated" in checks[name]["error"]


def test_validate_passes(tmp_path):
    assert run(tmp_path, "validate") == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert all(check["passed"] for check in report["checks"])
    assert len(report["checks"]) == 11


def test_validate_passes_above_the_default_spectrum_modes(tmp_path):
    # spectrum_translation reads mode m of the Q-spectrum, and m = 9 lies
    # past the modes 0..8 that q_fourier_spectrum returns by default.
    assert run(tmp_path, "validate", "--set", "m=9") == 0


# -- imports ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv", [["chart"], ["evolve", "--validate"], ["decay"], ["validate"]], ids=" ".join
)
def test_no_scipy_at_runtime(tmp_path, argv):
    # SciPy is a test dependency only: no subcommand may load it.
    code = (
        "import sys\n"
        "from phasemix.cli import main\n"
        f"code = main({[*argv, '--out', str(tmp_path)]!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ)
    src = str(Path(phasemix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_decay_imports_neither_argparse_nor_locale(tmp_path):
    # Parsing the command line costs no argparse (about 1 ms to build its
    # parsers) and no locale (imported by argparse's gettext lookups).
    code = (
        "import sys\n"
        "from phasemix.cli import main\n"
        f"code = main({['decay', '--out', str(tmp_path)]!r})\n"
        "print(code, [m for m in ('argparse', 'locale') if m in sys.modules])\n"
    )
    env = dict(os.environ)
    src = str(Path(phasemix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_validate_burns_no_cpu_off_the_main_thread(tmp_path):
    # After each threaded BLAS or LAPACK call, OpenBLAS's worker threads
    # spin for about 0.1 s, so every such call of a run shows up as CPU
    # time off the main thread.  The child waits out the spin its import
    # of NumPy starts, then runs validate twice and reports the CPU clock
    # ticks of its main thread and of all the others over the two runs.
    # The child asks for two BLAS threads, so that a threaded call would
    # show; left to itself, phasemix loads NumPy with one.
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("per-thread CPU times need /proc/self/task")
    code = (
        "import os, time\n"
        "from phasemix.cli import main\n"
        "def ticks():\n"
        "    out = {}\n"
        "    for tid in os.listdir('/proc/self/task'):\n"
        "        with open(f'/proc/self/task/{tid}/stat') as fh:\n"
        "            fields = fh.read().rsplit(')', 1)[1].split()\n"
        "        out[int(tid)] = int(fields[11]) + int(fields[12])\n"
        "    return out\n"
        "def others(t):\n"
        "    return sum(v for tid, v in t.items() if tid != os.getpid())\n"
        "prev = None\n"
        "for _ in range(100):\n"
        "    now = others(ticks())\n"
        "    if now == prev:\n"
        "        break\n"
        "    prev = now\n"
        "    time.sleep(0.05)\n"
        "before = ticks()\n"
        f"codes = [main(['validate', '--out', {str(tmp_path)!r}]) for _ in range(2)]\n"
        "after = ticks()\n"
        "pid = os.getpid()\n"
        "main_ticks = after[pid] - before[pid]\n"
        "print(codes, main_ticks, others(after) - others(before))\n"
    )
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "2"
    src = str(Path(phasemix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, main_ticks, other_ticks = proc.stdout.splitlines()[-1].rsplit(" ", 2)
    assert codes == "[0, 0]"
    assert int(main_ticks) > 0
    assert 4 * int(other_ticks) < int(main_ticks), proc.stdout.splitlines()[-1]


def test_import_starts_no_blas_thread():
    # OpenBLAS's workers spin for about 0.15 s after NumPy's import, so
    # the CPU time of a run would hang on how long its import took.  With
    # OPENBLAS_NUM_THREADS unset, importing the CLI loads NumPy with one
    # BLAS thread, burns no CPU off the main thread, and leaves the
    # environment as it found it.
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("thread counts need /proc/self/task")
    code = (
        "import os, time\n"
        "import phasemix.cli\n"
        "cpu = time.process_time()\n"
        "time.sleep(0.2)\n"
        "print(len(os.listdir('/proc/self/task')), time.process_time() - cpu,\n"
        "      'OPENBLAS_NUM_THREADS' in os.environ)\n"
    )
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    src = str(Path(phasemix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    threads, idle_cpu, leaked = proc.stdout.split()
    assert (threads, leaked) == ("1", "False")
    assert float(idle_cpu) < 0.01


# -- golden artifacts -------------------------------------------------------


def _check_against_reference(workload, exit_code, out_dir):
    """``perfbench/compare.check_run``: the benchmark's read-only output check."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "compare.py"
    spec = importlib.util.spec_from_file_location("perfbench_compare", path)
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    return compare.check_run(workload, exit_code, out_dir)


# The reference workloads and the subcommands that produce them.
GOLDEN = {"decay_default": ["decay"], "validate_default": ["validate", "--set", "seed=0"]}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_outputs_match_reference(tmp_path, workload):
    # decay.json to 1e-12 relative per field, validate.json verdicts.
    exit_code = run(tmp_path, *GOLDEN[workload])
    assert _check_against_reference(workload, exit_code, tmp_path) == []
