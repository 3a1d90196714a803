"""Check a workload's exit code and artifact against the captured reference.

``reference/<workload>/`` holds the artifact the CLI wrote when the
reference was captured, plus ``run.json`` with its exit code and argv.

* ``decay.json``: every numeric field must match to 1e-12 relative,
  scaled by the largest magnitude in that field (per column for the lists
  of ``(t, value)`` pairs); booleans, strings and shapes must match
  exactly.
* ``validate.json``: only the check names and their pass/fail verdicts
  are compared.  The ``measured`` residuals sit near round-off (1e-16)
  and some depend on the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
DECAY_RTOL = 1e-12


def _decay_mismatches(ref, got, path: str) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path or 'top level'}: keys {sorted(ref)} != {sorted(got) if isinstance(got, dict) else got!r}"]
        out = []
        for key in sorted(ref):
            out += _decay_mismatches(ref[key], got[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(ref, (bool, str)) or ref is None:
        return [] if got == ref else [f"{path}: {got!r} != reference {ref!r}"]
    try:
        r = np.asarray(ref, dtype=float)
        g = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        return [f"{path}: {got!r} is not numeric like the reference"]
    if r.shape != g.shape:
        return [f"{path}: shape {g.shape} != reference {r.shape}"]
    if r.size == 0:
        return []
    # A list of (t, value) pairs holds two quantities; each column gets its own scale.
    axis = 0 if r.ndim == 2 else None
    scale = np.max(np.abs(r), axis=axis)
    diff = np.max(np.abs(g - r), axis=axis)
    deviation = float(np.max(np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), diff)))
    if not deviation <= DECAY_RTOL:  # also rejects NaN
        return [f"{path}: relative deviation {deviation:.3e} > {DECAY_RTOL:g}"]
    return []


def compare_decay(ref: dict, got: dict) -> list[str]:
    """Mismatching fields of a ``decay.json``, each with its deviation."""
    return _decay_mismatches(ref, got, "")


def compare_validate(ref: dict, got: dict) -> list[str]:
    """Mismatching verdicts of a ``validate.json``."""
    want = [(c["name"], c["passed"]) for c in ref["checks"]]
    have = [(c.get("name"), c.get("passed")) for c in got.get("checks", [])]
    if [n for n, _ in want] != [n for n, _ in have]:
        return [f"checks {[n for n, _ in have]} != reference {[n for n, _ in want]}"]
    return [f"{name}: passed={p!r} != reference {q!r}" for (name, q), (_, p) in zip(want, have) if p != q]


COMPARATORS = {"decay.json": compare_decay, "validate.json": compare_validate}


def check_run(workload: str, exit_code: int, out_dir: Path) -> list[str]:
    """All mismatches of one invocation against the reference; empty if it matches."""
    ref_dir = REFERENCE / workload
    run = json.loads((ref_dir / "run.json").read_text())
    problems = []
    if exit_code != run["exit_code"]:
        problems.append(f"exit code {exit_code} != reference {run['exit_code']}")
    artifact = run["artifact"]
    try:
        got = json.loads((out_dir / artifact).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"{artifact}: unreadable ({exc})"]
    ref = json.loads((ref_dir / artifact).read_text())
    return problems + [f"{artifact} {p}" for p in COMPARATORS[artifact](ref, got)]
