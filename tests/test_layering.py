"""Package layering: the exact core stays numpy-free and alone reads
rational parts; the oracle stays clear of the criteria it checks; the export
list holds."""

import ast
import json
from pathlib import Path

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
