"""The validate invariants, called directly and through the CLI."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from phasemix import checks, moments
from phasemix.action_angle import OrbitChart
from phasemix.cli import main
from phasemix.experiment import Experiment, ExperimentConfig
from phasemix.moments import MomentCalculator

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def test_check_names_match_validate_list_and_reference(tmp_path, capsys):
    names = [check.__name__ for check in checks.CHECKS]
    assert len(names) == 11
    assert main(["validate", "--list", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == names
    reference = json.loads((REFERENCE / "validate_default" / "validate.json").read_text())
    assert [c["name"] for c in reference["checks"]] == names


@pytest.mark.parametrize("check", checks.CHECKS, ids=lambda c: c.__name__)
def test_check_passes_at_default_config(experiment, check):
    result = checks.run(check, experiment)
    assert result["passed"], result
    assert "error" not in result
    assert result["margin"] == result["measured"] / result["tolerance"] <= 1.0, result


def test_margin_is_null_without_a_measurement(experiment):
    def crashes(exp):
        raise ValueError("no measurement")

    def diverges(exp):
        return float("inf"), 1e-6

    for check in (crashes, diverges):
        result = checks.run(check, experiment)
        assert result["measured"] is None and result["margin"] is None, result
        assert not result["passed"]


def test_unmodulated_datum_fails_the_mode_checks(experiment):
    # The config rejects alpha = 0, yet data with no mode m must still fail
    # these two checks with an error, not crash: both phi_t routes are 0, so
    # their gap ratio is not finite, and mode m of the spectrum has no phase.
    exp = Experiment(experiment.cfg)
    exp.f0 = dataclasses.replace(experiment.f0, alpha=0.0)
    route = checks.run(checks.phi_t_route_equivalence, exp)
    spectrum = checks.run(checks.spectrum_translation, exp)
    assert not route["passed"] and route["measured"] is None
    assert "not finite: inf" in route["error"]
    assert not spectrum["passed"] and spectrum["measured"] is None
    assert "phase is undefined" in spectrum["error"]


def test_mass_conservation_measures_the_quadrature_at_even_m():
    # At odd m the oscillating density is odd in x, on the run's mirrored
    # grid to the last bit, so the check reads rounding alone (1.2e-16 at
    # m = 1).  At m = 2 it is even, and the check sees the quadrature:
    # 8.5e-9 against the tolerance 1e-6.
    result = checks.run(checks.mass_conservation, Experiment(ExperimentConfig(m=2)))
    assert result["passed"], result
    assert result["measured"] > 1e-10, result


def test_jacobian_mass_resolves_the_default_grid(experiment):
    # The trapezoid rule on the run's uniform grid, spectrally accurate for a
    # density that vanishes to all orders at +-x_max: 3.5e-8 against 1e-6.
    measured, tolerance = checks.jacobian_mass_equivalence(experiment)
    assert measured <= 1e-7 < tolerance


@pytest.mark.parametrize("override", ["grid_points=3", "grid_points=5", "epsilon=30"])
def test_validate_fails_a_grid_that_cannot_hold_the_density(tmp_path, override):
    # The mass checks integrate the run's own node set, so a grid too coarse
    # for its density fails them: 0.59, 0.27 and 2.3e-6 against 1e-6.  The
    # first two passed while the mass checks took a Gauss grid of their own.
    assert main(["validate", "--set", override, "--out", str(tmp_path)]) == 1
    results = json.loads((tmp_path / "validate.json").read_text())["checks"]
    jacobian = {c["name"]: c for c in results}["jacobian_mass_equivalence"]
    assert not jacobian["passed"] and jacobian["tolerance"] == 1e-6


@pytest.mark.parametrize("overrides", [["n_k=4"], ["epsilon=0.1", "c_s=0.2"]])
def test_validate_fails_a_chart_off_the_exact_orbit(tmp_path, overrides):
    # The chart's Q(chi) against the closed-form orbit: 7.9e-5 and 3.4e-9
    # against 1e-9.  At eps = 0.1, c_s = 0.2 chart_convergence passes
    # (9.6e-10), so this check alone refuses that chart.
    argv = [item for kv in overrides for item in ("--set", kv)]
    assert main(["validate", *argv, "--out", str(tmp_path)]) == 1
    results = json.loads((tmp_path / "validate.json").read_text())["checks"]
    roundtrip = {c["name"]: c for c in results}["chart_geometry_roundtrip"]
    assert not roundtrip["passed"] and roundtrip["tolerance"] == 1e-9


def _count_calls(monkeypatch, cls, counts):
    original = cls.__init__

    def counting(self, *args, **kwargs):
        counts[cls.__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)


def test_validate_builds_two_charts_and_two_node_sets(tmp_path, monkeypatch):
    # The configured chart and chart_convergence's doubled one; the run's
    # 201 x 128 node set, which the mass checks integrate, and
    # phi_t_route_equivalence's own 801 x 512.  No Gauss x-grid is built.
    counts = {"OrbitChart": 0}
    _count_calls(monkeypatch, OrbitChart, counts)
    node_sets, rules = [], []
    init, rule = MomentCalculator.__init__, moments.gauss_legendre

    def building(self, f0, grid_points, n_quad):
        node_sets.append((grid_points, n_quad))
        init(self, f0, grid_points, n_quad)

    def ruling(n):
        rules.append(n)
        return rule(n)

    monkeypatch.setattr(MomentCalculator, "__init__", building)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "phasemix" and getattr(module, "gauss_legendre", None) is rule:
            monkeypatch.setattr(module, "gauss_legendre", ruling)
    assert main(["validate", "--out", str(tmp_path)]) == 0
    assert counts == {"OrbitChart": 2}
    assert sorted(node_sets) == [(201, 128), (801, 512)]
    assert 128 in rules and 201 not in rules
