"""Checks of the package source: no unused import, no dangling export, and
no process machinery loaded by the command line."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import tumorspec

SOURCES = sorted(Path(tumorspec.__file__).parent.glob("*.py"))


def unused_imports(tree):
    """Names bound by an import that the module never reads nor exports."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(exported_names(tree))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_detected():
    tree = ast.parse("import os\nfrom .disk import dealias, theta_derivative\n"
                     "__all__ = ['os']\nx = dealias\n")
    assert unused_imports(tree) == [(2, "theta_derivative")]


def test_every_export_resolves():
    assert tumorspec.__all__
    missing = [name for name in tumorspec.__all__ if not hasattr(tumorspec, name)]
    assert missing == []
    assert len(set(tumorspec.__all__)) == len(tumorspec.__all__)


def test_cli_import_loads_no_multiprocessing(package_env):
    # a sweep runs in one process; a fresh interpreter sees what the import pulls in
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, tumorspec.cli; print('multiprocessing' in sys.modules)"],
        env=package_env, check=True, capture_output=True, text=True)
    assert result.stdout.strip() == "False"
