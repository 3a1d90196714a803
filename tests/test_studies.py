"""Smoke tests of the scripts under studies/, run as their docstrings say."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
