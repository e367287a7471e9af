"""Package layering: the exact core stays numpy-free and alone reads
rational parts; the package and the exact subcommands start without numpy,
which loads with the float layer on first use, and output bytes do not
depend on when it loads; the oracle stays clear of the criteria it checks;
the export list holds."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mucut

PACKAGE = Path(mucut.__file__).parent

# Only the float layer and the selftest that drives it may use numpy.
NUMPY_MODULES = {"spectral.py", "selftest.py"}


def imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_numpy_only_in_float_layers():
    users = {path.name for path in PACKAGE.glob("*.py")
             if "numpy" in imported_roots(path)}
    assert users <= NUMPY_MODULES, sorted(users - NUMPY_MODULES)


def module_level_imports(path: Path) -> set:
    """Last components of the modules a file imports outside any function
    body, with the names of ``from . import x``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    in_functions = {id(node) for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    for node in ast.walk(func)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in in_functions:
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            else:
                names.update(alias.name for alias in node.names)
    return {name.split(".")[-1] for name in names}


def test_float_layer_imported_at_function_level_only():
    float_modules = {name.removesuffix(".py") for name in NUMPY_MODULES}
    for name in ("cli.py", "__init__.py"):
        found = module_level_imports(PACKAGE / name) & float_modules
        assert not found, (name, sorted(found))


def cold_child(code: str, *argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running ``code`` with this checkout's package."""
    path = os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_package_and_cli_import_without_numpy():
    done = cold_child("import sys, mucut, mucut.cli; "
                      "print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


ZERO, ONE = '{"re": "0", "im": "0"}', '{"re": "1", "im": "0"}'
OPERATOR = f'{{"terms": [{{"k": 1, "poly": [{ONE}, {ONE}]}}]}}'
JET = f'{{"dmax": 3, "coeffs": [{{"k": 2, "l": 0, "value": {ONE}}}]}}'
SYMBOL = f'{{"degree": 1, "modes": [{{"k": -2, "poly": [{ZERO}, {ONE}]}}]}}'
EXACT_ARGVS = [
    ["commutant-check", OPERATOR],
    ["factorize", OPERATOR],
    ["identity-pk", "--max-k", "3"],
    ["jet-extend", JET],
    ["pullback", JET],
    ["pushforward", SYMBOL],
    ["cone-lens", "--p", "5", "--q", "2"],
    ["cone-cut", '{"lens": [5, 2]}', "--normal", "1", "0"],
    ["cone-equiv", '{"first": {"lens": [5, 2]}, "second": {"lens": [5, 3]}}'],
    ["cone-plan", '{"lens": [5, 2]}'],
]


# runs main() on its argv, then reports the exit code and whether numpy loaded
MAIN_CHILD = """
import sys
from mucut.cli import main
status = main(sys.argv[1:])
sys.stderr.write(f"{status} {'numpy' in sys.modules}\\n")
"""


@pytest.mark.parametrize("argv", EXACT_ARGVS, ids=[a[0] for a in EXACT_ARGVS])
def test_exact_subcommand_runs_without_numpy(argv):
    done = cold_child(MAIN_CHILD, *argv)
    assert done.stderr == "0 False\n"
    assert json.loads(done.stdout)["schema"] == mucut.SCHEMA


# the spectrum requests of the benchmark's cli mix at seeds 1-3:
# Lower + Raise + (n**2 + shift*n) at these windows
@pytest.mark.parametrize("shift, window", [
    ("-1/8", 32), ("1/12", 40), ("1/8", 40), ("-1/12", 48), ("1/16", 24),
    ("-1/8", 40)])
def test_spectrum_bytes_independent_of_import_order(capsys, shift, window):
    # a cold child imports numpy when the handler runs, this process long
    # before; the report bytes must not depend on that
    from mucut.cli import main

    diagonal = f'[{ZERO}, {{"re": "{shift}", "im": "0"}}, {ONE}]'
    op = (f'{{"terms": [{{"k": -1, "poly": [{ZERO}, {ONE}]}}, '
          f'{{"k": 0, "poly": {diagonal}}}, '
          f'{{"k": 1, "poly": [{ONE}, {ONE}]}}]}}')
    argv = ["spectrum", op, "--window", str(window)]
    cold = cold_child(MAIN_CHILD, *argv)
    assert cold.stderr == "0 True\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == cold.stdout


def test_lazy_names_are_their_modules_attributes():
    assert set(mucut.__all__) <= set(dir(mucut))
    for name, module in mucut._LAZY.items():
        assert name in mucut.__all__
        source = importlib.import_module(f"mucut.{module}")
        assert getattr(mucut, name) is getattr(source, name)
        # resolved once, then a plain module attribute
        assert vars(mucut)[name] is getattr(source, name)
    assert not hasattr(mucut, "no_such_name")


def test_fraction_parts_read_only_in_exact():
    # Polynomial evaluation has one source, the integer Horner in exact.py;
    # reading numerators and denominators elsewhere would start a second.
    readers = {path.name for path in PACKAGE.glob("*.py")
               if any(isinstance(node, ast.Attribute)
                      and node.attr in ("numerator", "denominator")
                      for node in ast.walk(ast.parse(path.read_text())))}
    assert readers <= {"exact.py"}, sorted(readers - {"exact.py"})


def test_all_resolves_without_duplicates():
    assert len(mucut.__all__) == len(set(mucut.__all__))
    missing = [name for name in mucut.__all__ if not hasattr(mucut, name)]
    assert missing == []


def test_oracle_independent_of_criteria():
    # The brute-force checks certify the closed-form criteria, so the oracle
    # may share the matrix realization but never the criteria themselves.
    criteria = {"required_vanishing", "shift_divisor", "szego_commutes",
                "szego_commutator_entries"}
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & criteria, sorted(named & criteria)


def test_weyl_counts_without_a_dense_solve(monkeypatch, capsys):
    # counting is by inertia on the band: no eigensolver at bandwidths 0, 1
    # or 2, both in-process and through the command line
    import numpy as np

    from mucut.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("weyl counting called numpy.linalg.eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    g = mucut.make_generator
    d, r, l = g("D"), g("Raise"), g("Lower")
    assert mucut.weyl_compare(d * d + r + l, 4096).max_residual <= 1.0
    mucut.weyl_compare(d * d * d + r * r + l * l, 512)
    banded = json.dumps((d * d + r + l).to_json())
    for argv in (["weyl", json.dumps(d.to_json())], ["weyl", banded]):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] <= 1.0
