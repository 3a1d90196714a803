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
from hypothesis import given, settings, strategies as st

import phasemix
from phasemix.cli import load_config, main
from phasemix.experiment import ConfigError, Experiment, ExperimentConfig


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
    with pytest.raises(ConfigError):
        ExperimentConfig(fit_window=(50.0, 20.0))


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
        alpha=draw(st.floats(0.0, 1.0, exclude_max=True)),
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
        ("decay", "t_max=Infinity"),
        ("decay", "samples_per_period=NaN"),
        ("evolve", "evolve_samples=0"),
        ("evolve", "evolve_samples=2.5"),
        ("evolve", "fd_dt=-5"),
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


# At eps = 100, c_s = 0.1 eight angle nodes leave the truncated series
# with dQ/dchi <= 0 somewhere, so the chart build raises ChartError.
UNRESOLVED_CHART = ("--set", "epsilon=100", "--set", "c_s=0.1", "--set", "n_chi=8")


@pytest.mark.parametrize("command", ["chart", "evolve", "decay"])
def test_unresolved_chart_exit_code(tmp_path, command):
    assert run(tmp_path, command, *UNRESOLVED_CHART) == 3


def test_truncated_chart_exit_code(tmp_path, capsys):
    # 512 angle nodes (the default) end this chart's series on a mode of
    # 1.4e-5, above the tail floor: monotone, but truncated.
    assert run(tmp_path, "chart", "--set", "epsilon=100", "--set", "c_s=0.1") == 3
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["epsilon=1e308", "epsilon=1e160", "c_s=5e-324", "c_s=1e-300"])
@pytest.mark.parametrize("command", ["chart", "decay"])
def test_non_finite_chart_exit_code(tmp_path, capsys, command, override):
    # The potential overflows over the chart's energy range, so the chart's
    # tables would overflow to inf and NaN.  The config is rejected before
    # any array is built: no NumPy warning, and nothing written.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, command, "--set", override) == 2
    err = capsys.readouterr().err
    assert "overflow" in err and "RuntimeWarning" not in err
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


# -- chart ------------------------------------------------------------------


def test_chart_artifacts(tmp_path):
    assert run(tmp_path, "chart") == 0
    with open(tmp_path / "chart.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["K", "c", "c_prime"]
    assert len(rows) == 1 + 64
    k, c, cp = (np.array([float(r[i]) for r in rows[1:]]) for i in range(3))
    assert np.all(np.diff(k) > 0) and np.all(cp > 0) and np.all(c >= 1.0)
    summary = json.loads((tmp_path / "chart_summary.json").read_text())
    assert summary["delta"] > 0
    assert summary["convergence"]["max_rel_change"] < 1e-10


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
    # %.17g round-trips a float64, so each column equals its moment exactly.
    assert run(tmp_path, *EVOLVE_ARGS) == 0
    rows = np.loadtxt(tmp_path / "evolve.csv", delimiter=",", skiprows=1)
    exp = Experiment(load_config(None, list(EVOLVE_ARGS[2::2])))
    calc = exp.node_set
    times = np.linspace(0.0, exp.cfg.t_max, exp.cfg.evolve_samples)
    rho, j = calc.density(times), calc.current(times)
    expected = (np.tile(calc.x, times.size), rho, j, calc.potential_of(rho), calc.phi_t_of(j))
    for column, moment in zip(rows.T[1:], expected):
        np.testing.assert_array_equal(column, moment.ravel())


def test_evolve_cross_validates(tmp_path):
    assert run(tmp_path, *EVOLVE_ARGS, "--validate") == 0


# The support annulus [c_s, 1/c_s] is 2e-10 wide in energy, so the two
# solution routes' bump values part by 3.8e-2, above the 1e-4 tolerance.
SOLVER_GAP = ("--set", "c_s=0.9999999999", "--set", "evolve_samples=2")


def test_evolve_validate_fails_on_the_validate_check(tmp_path, capsys):
    # evolve --validate and validate run the same check with the same tolerance.
    assert run(tmp_path, "evolve", "--validate", *SOLVER_GAP) == 3
    err = capsys.readouterr().err
    assert "max |f_aa - f_char| = 3.824e-02" in err
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
        assert "no node of the 201-point Gauss grid x v_quad = 128" in checks[name]["error"]
    route = checks["phi_t_route_equivalence"]
    assert not route["passed"] and route["measured"] is None
    assert "no node of the 801-point grid x 512 velocity nodes" in route["error"]


def test_validate_records_an_unmodulated_datum(tmp_path):
    # At alpha = 0 the data has no mode m: both phi_t routes are 0, so
    # their gap ratio is not finite, and the spectrum's mode m has no phase.
    assert run(tmp_path, "validate", "--set", "alpha=0") == 1
    checks = _strict_checks(tmp_path / "validate.json")
    failed = {name for name, c in checks.items() if not c["passed"]}
    assert failed == {"phi_t_route_equivalence", "spectrum_translation"}
    for name in failed:
        assert checks[name]["measured"] is None
    assert "not finite: inf" in checks["phi_t_route_equivalence"]["error"]
    assert "phase is undefined" in checks["spectrum_translation"]["error"]


# -- decay ------------------------------------------------------------------


def test_decay_self_tests(tmp_path):
    assert run(tmp_path, "decay", "--self-test", "power-law") == 0
    report = json.loads((tmp_path / "decay_selftest.json").read_text())
    assert abs(report["slope"] + 2.0) < 1e-6
    assert run(tmp_path, "decay", "--self-test", "oscillating") == 0
    report = json.loads((tmp_path / "decay_selftest.json").read_text())
    assert abs(report["slope"] + 1.0) < 0.05


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
    assert checks["c_prime_vs_fd"]["passed"]
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
        assert "not monotone" in checks[name]["error"]


def test_validate_passes(tmp_path):
    assert run(tmp_path, "validate") == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert all(check["passed"] for check in report["checks"])
    assert len(report["checks"]) == 11


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
