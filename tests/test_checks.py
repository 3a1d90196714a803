"""The validate invariants, called directly and through the CLI."""

import dataclasses
import json
from pathlib import Path

import pytest

from phasemix import checks
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
    # At odd m the oscillating density is odd in x, on the symmetric Gauss
    # grid to the last bit, so the check reads rounding alone (2.4e-16 at
    # m = 1).  At m = 2 it is even, and the check sees the quadrature:
    # 6.05e-8 against the tolerance 1e-6.
    result = checks.run(checks.mass_conservation, Experiment(ExperimentConfig(m=2)))
    assert result["passed"], result
    assert result["measured"] > 1e-10, result


def _count_calls(monkeypatch, cls, counts):
    original = cls.__init__

    def counting(self, *args, **kwargs):
        counts[cls.__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)


def test_validate_builds_two_charts_and_two_node_sets(tmp_path, monkeypatch):
    # The configured chart and chart_convergence's doubled one; the mass
    # checks' shared Gauss node set and phi_t_route_equivalence's own.
    counts = {"OrbitChart": 0, "MomentCalculator": 0}
    _count_calls(monkeypatch, OrbitChart, counts)
    _count_calls(monkeypatch, MomentCalculator, counts)
    assert main(["validate", "--out", str(tmp_path)]) == 0
    assert counts == {"OrbitChart": 2, "MomentCalculator": 2}
