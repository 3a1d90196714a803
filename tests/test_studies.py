"""The studies under ``studies/`` still run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import phasemix

ROOT = Path(__file__).resolve().parents[1]


def test_rotation_seed_study_runs():
    # The study reaches into the node set's private arrays and
    # moments.SEED, so a change to the scan must keep it runnable.
    env = dict(os.environ)
    src = str(Path(phasemix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "studies" / "rotation_seed.py"), "--repeats", "1",
            "--set", "t_max=40", "--set", "fit_window=[5, 40]"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
