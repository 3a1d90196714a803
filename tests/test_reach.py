"""Every function in ``src/phasemix`` is one that some subcommand runs,
and every name a module imports is one it reads.

The subcommands are run in process under ``sys.setprofile``, which records
the code of every Python function entered.  A function that none of them
enters is either deleted or named in ``UNREACHED`` with the reason it stays.
An import that its module never reads is either deleted or named in
``UNREAD_IMPORTS`` with the reason it stays.
"""

import ast
import os
import sys
from pathlib import Path

import phasemix
from phasemix import cli, moments

SRC = Path(phasemix.__file__).resolve().parent

UNREACHED = {
    ("moments.py", "MomentCalculator.current"): "a layer that perfbench's tracer times",
    ("experiment.py", "ExperimentConfig.to_dict"): "the JSON round trip of a config",
}

UNREAD_IMPORTS = {
    ("cli.py", "evaluate_f_actionangle"): "perfbench's tracer test checks that the tracer rebinds it",
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
