"""Every function in ``src/phasemix`` is one that some subcommand runs,
every name a module imports is one it reads, and no node-sized array takes
libm's sin or cos.

The subcommands are run in process under ``sys.setprofile``, which records
the code of every Python function entered.  A function that none of them
enters is either deleted or named in ``UNREACHED`` with the reason it stays.
An import that its module never reads is either deleted or named in
``UNREAD_IMPORTS`` with the reason it stays.  Each ``np.sin`` or ``np.cos``
is named in ``LIBM_TRIG`` with the reason it is not the one-tan kernel
``half_angle_sin_cos``, and so is each ``np.tan``, so that the kernel's
half-angle formulas are written once.
"""

import ast
import os
import sys
from pathlib import Path

import phasemix
from phasemix import cli, moments

SRC = Path(phasemix.__file__).resolve().parent

UNREACHED = {
    ("experiment.py", "ExperimentConfig.to_dict"): "the JSON round trip of a config",
}

UNREAD_IMPORTS = {
    ("cli.py", "evaluate_f_actionangle"): "perfbench's tracer test checks that the tracer rebinds it",
}

# (file, enclosing function): its np.sin, np.cos and np.tan in source order,
# and why they stay.  NumPy vectorizes float64 tan on AVX-512, not sin and
# cos, so every array as large as a node set takes ``half_angle_sin_cos``.
LIBM_TRIG = {
    ("action_angle.py", "half_angle_sin_cos"): (("tan",), "the kernel"),
    ("action_angle.py", "rate_a"): (("cos",), "the chart's angle row: n_chi // 4 + 1 "
                                    "quarter-orbit angles, or compute_c's n_quad"),
    ("moments.py", "_first_guess"): (("tan",), "cot(psi) of the n // 2 first guesses"),
    ("moments.py", "_newton"): (("cos", "cos"), "Newton's cos(theta), n // 2 roots a pass"),
    ("moments.py", "stream"): (("cos", "cos", "sin"), "the DFT's order + 2 angles, and the "
                               "long-double phase r0 t, one per time"),
    ("cli.py", "<module>"): (("sin",), "the synthetic series of decay --self-test"),
}

RUNS = [
    ["chart"],
    ["evolve", "--validate"],
    ["decay"],
    ["decay", "--set", "include_control=true"],
    ["decay", "--self-test", "power-law"],
    ["decay", "--self-test", "oscillating"],
    ["validate"],
    ["validate", "--list"],
]


def _defined():
    """(file, qualified name) of every function defined under src/phasemix."""
    found = set()

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((file, prefix + child.name))
                walk(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.name, "")
    return found


def _enter(tmp_path, runs):
    """Exit codes of ``runs`` in process, and (file, qualified name) of every
    function under src/phasemix that they entered."""
    entered, src = set(), str(SRC)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == src:
            entered.add((os.path.basename(code.co_filename), code.co_qualname))

    # A rule built earlier in this process would not be built again.
    moments.gauss_legendre.cache_clear()
    sys.setprofile(profile)
    try:
        codes = [cli.main([*argv, "--out", str(tmp_path)]) for argv in runs]
    finally:
        sys.setprofile(None)
    return codes, entered


def test_subcommands_enter_every_function(tmp_path):
    codes, entered = _enter(tmp_path, RUNS)
    assert codes == [0] * len(RUNS)
    unreached = _defined() - entered
    assert unreached == set(UNREACHED)


def test_only_validate_enters_the_reference_frequency(tmp_path):
    # compute_c is the independent reference that validate's checks hold the
    # chart to; no other subcommand may compute with it.
    runs = [argv for argv in RUNS if argv[0] != "validate"]
    codes, entered = _enter(tmp_path, runs)
    assert codes == [0] * len(runs)
    assert ("action_angle.py", "compute_c") not in entered


def test_modules_read_every_import():
    # The package's __init__ imports in order to export.
    unread = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread |= {(path.name, name) for name in imported - read}
    assert unread == set(UNREAD_IMPORTS)


def test_libm_trig_only_where_allowed():
    # Any reference counts, a call or a function passed on (trig = np.cos).
    found = {}

    def walk(node, file, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                walk(child, file, inner)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in ("sin", "cos", "tan")
                    and isinstance(child.value, ast.Name) and child.value.id == "np"):
                found.setdefault((file, scope), []).append((child.lineno, child.col_offset,
                                                            child.attr))
            walk(child, file, scope)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.name, "<module>")
    sites = {key: tuple(name for *_, name in sorted(calls)) for key, calls in found.items()}
    assert sites == {key: names for key, (names, _) in LIBM_TRIG.items()}
