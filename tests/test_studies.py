"""Smoke tests of the scripts under studies/, run as their docstrings say."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from phasemix.experiment import Experiment, ExperimentConfig
from phasemix.moments import MomentCalculator

ROOT = Path(__file__).resolve().parents[1]
STUDIES = sorted((ROOT / "studies").glob("*.py"))


def _load_study(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "studies" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_stream_study_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    tiny = ["--set", "grid_points=51", "--set", "v_quad=64", "--set", "t_max=40",
            "--set", "fit_window=[5, 40]", "--repeats", "1"]
    done = subprocess.run([sys.executable, "studies/scan_stream.py", *tiny], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert header.split()[:3] == ["scan", "times", "order"]
    assert row.split()[-1] == "equal"
    assert float(row.split()[-2]) < 1e-13


def test_pullback_block_study_measures_the_node_set():
    # The study's own accuracy measurement, on a 51 x 64 node set rather
    # than its fixed resolutions: the node set's Q against the per-mode sum.
    study = _load_study("pullback_block")
    exp = Experiment(ExperimentConfig())
    calc = MomentCalculator(exp.f0, 51, n_quad=64)
    chi, k, q = study.support_points(exp, calc, 64)
    assert chi.size > 0
    assert study.direct_error(exp.chart, chi, k, q) <= 4e-15


def _assigned_attributes(tree):
    """The ``value.attr`` targets of every assignment in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    yield sub


def _resolve(node, namespace):
    """The object a ``name.attr...`` chain names in ``namespace``, else None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


@pytest.mark.parametrize("path", STUDIES, ids=lambda path: path.stem)
def test_study_sets_only_existing_phasemix_attributes(path):
    # A study that tunes a module constant by assignment would, after the
    # constant is renamed, quietly add a new attribute and time the default.
    study = _load_study(path.stem)
    for target in _assigned_attributes(ast.parse(path.read_text())):
        owner = _resolve(target.value, vars(study))
        if isinstance(owner, ModuleType) and owner.__name__.split(".")[0] == "phasemix":
            assert hasattr(owner, target.attr), (
                f"{path.name}:{target.lineno} sets {owner.__name__}.{target.attr}, "
                "which does not exist")


def test_gauss_rule_study_measures_the_rules():
    # The study's accuracy tables at one node count: gauss_legendre against
    # 40-digit Newton, and more accurate than leggauss in its weights.
    study = _load_study("gauss_rule")
    errors = study.errors(128)
    node, weight = errors["gauss_legendre"]
    assert node <= 2e-16 and weight <= 1e-13
    assert weight < errors["leggauss"][1]
    # Its first guess, within 1e-10 of the roots, ends Newton in one pass.
    guess, passes = study.first_guess(128)
    assert guess <= 1e-10 and passes == 1
