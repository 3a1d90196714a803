"""The validate invariants, called directly and through the CLI."""

import json
from pathlib import Path

import pytest

from phasemix import checks
from phasemix.action_angle import OrbitChart
from phasemix.cli import main
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
