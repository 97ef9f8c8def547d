"""The package's surface: a bare import loads nothing, every public name has a caller."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import floorlog

PACKAGE = Path(floorlog.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# public names kept although nothing in src/, scripts/ or perfbench/ calls them
UNCALLED_BY_DESIGN = {
    # the per-index route of r from two fresh jump positions: one of the
    # independent cross-checks of r_direct and r_stream (criterion 1)
    "r_recur",
    # looks a battery instance up by its name for the acceptance criteria
    "by_name",
}


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read(stmt) -> set[str]:
    """Names a top-level statement reads, attributes and imports included."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    statements = []  # (statement, names it reads)
    defined = []  # (name, defining statement)
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((stmt, _read(stmt)))
            if path.parent == PACKAGE:
                defined += [(name, stmt) for name in _defined(stmt)
                            if not name.startswith("_")]
    uncalled = {
        name for name, home in defined
        if not any(name in reads for stmt, reads in statements if stmt is not home)
    }
    assert uncalled - UNCALLED_BY_DESIGN == set()


def test_bare_import_loads_no_submodule():
    code = "import sys, floorlog; print([m for m in sys.modules if m.startswith('floorlog.')])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == floorlog.__version__
