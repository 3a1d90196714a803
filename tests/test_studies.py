"""Smoke tests of the scripts under studies/, run as their docstrings say."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from phasemix.experiment import Experiment, ExperimentConfig
from phasemix.moments import MomentCalculator, spatial_grid

ROOT = Path(__file__).resolve().parents[1]


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
    calc = MomentCalculator(exp.f0, spatial_grid(exp.params, exp.cfg.c_s, 51), n_quad=64)
    chi, k, q = study.support_points(exp, calc, 64)
    assert chi.size > 0
    assert study.direct_error(exp.chart, chi, k, q) <= 4e-15
