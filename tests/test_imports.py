"""Checks of the package source: no unused import (in the tests either), no
name or method that nothing reads, none that only the tests read, no
dangling export, no process machinery loaded by the command line, and a
runtime without scipy."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tumorspec

from test_readme import README, python_blocks

SOURCES = sorted(Path(tumorspec.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


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
    """The names of a literal ``__all__``; a computed one names none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=[p.name for p in SOURCES]
                         + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_detected():
    tree = ast.parse("import os\nfrom .disk import dealias, theta_derivative\n"
                     "__all__ = ['os']\nx = dealias\n")
    assert unused_imports(tree) == [(2, "theta_derivative")]


def definitions(tree):
    """Module-level names and "Class.method" names a module defines, without
    dunders."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [name for name in names if not name.split(".")[-1].startswith("__")]


def read_names(tree):
    """Every name a module reads: loaded names, attributes, imported names and
    the dotted parts of string constants (monkeypatch targets, ``__all__``)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def unread_definitions(defining, reading):
    """Definitions of the ``defining`` trees that no ``reading`` tree reads."""
    read = set().union(*map(read_names, reading))
    return sorted(name for tree in defining for name in definitions(tree)
                  if name.split(".")[-1] not in read)


def test_every_definition_is_read():
    trees = [ast.parse(path.read_text()) for path in SOURCES + TESTS + BENCH]
    assert unread_definitions(trees[:len(SOURCES)], trees) == []


def test_unread_definition_is_detected():
    module = ast.parse("LIMIT = 3\nSTEP = 1\ndef used(): pass\ndef dead(): pass\n"
                       "class C:\n    def __init__(self): pass\n"
                       "    def kept(self): pass\n    def gone(self): pass\n")
    reader = ast.parse("used(C().kept())\nx = STEP\nsetattr(m, 'LIMIT', 4)\n"
                       "dead = 0\n")
    assert unread_definitions([module], [module, reader]) == ["C.gone", "dead"]


def without_exports(tree):
    """The module without its export lists ``__all__`` and ``_MODULES``,
    which name a definition without reading it."""
    def is_export(node):
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("__all__", "_MODULES")
            for t in node.targets)

    return ast.Module(body=[node for node in tree.body if not is_export(node)],
                      type_ignores=[])


def test_every_definition_is_read_by_the_package():
    # a command, the README quick start or a benchmark span reads each
    # definition; one that only the tests read belongs in tests/oracles.py
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    readers = ([without_exports(tree) for tree in trees]
               + [ast.parse(block) for block in python_blocks(README.read_text())]
               + [ast.parse(SPANS.read_text())])
    assert unread_definitions(trees, readers) == []


def test_name_read_only_by_tests_is_detected():
    module = ast.parse("__all__ = ['run', 'check']\n"
                       "_MODULES = {'cli': ('run', 'check')}\n"
                       "def run(): pass\ndef check(): pass\n"
                       "def __getattr__(name): return _MODULES[name]\n")
    command = ast.parse("run()\n")
    test = ast.parse("check()\n")
    assert unread_definitions([module], [module, command, test]) == []
    assert unread_definitions([module], [module, command]) == []
    assert unread_definitions([module], [without_exports(module), command]) \
        == ["check"]


def test_every_export_resolves():
    assert tumorspec.__all__
    missing = [name for name in tumorspec.__all__ if not hasattr(tumorspec, name)]
    assert missing == []
    assert len(set(tumorspec.__all__)) == len(tumorspec.__all__)
    # the lazy imports cover exactly the exports
    assert sorted(tumorspec._MODULE_OF) == sorted(tumorspec.__all__)


def test_cli_import_loads_no_multiprocessing(package_env):
    # a sweep runs in one process, and only evolve loads the evolution
    # modules; a fresh interpreter sees what the import pulls in
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, tumorspec.cli; print(sorted(m for m in ("
         "'multiprocessing', 'tumorspec.dynamics', 'tumorspec.fields') "
         "if m in sys.modules), tumorspec.fields.__name__)"],
        env=package_env, check=True, capture_output=True, text=True)
    # a submodule still loads on first access
    assert result.stdout.strip() == "[] tumorspec.fields"


SCIPY_BLOCKED = """\
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not available")

sys.meta_path.insert(0, BlockScipy())
from tumorspec.cli import main

out = sys.argv[1]
codes = [main(["steady", "--A", "0.5", "--out", out + "/steady"]),
         main(["spectrum", "--A", "0.5", "--G", "2", "--kmax", "64",
               "--out", out + "/spectrum"]),
         main(["evolve", "--config", sys.argv[2], "--out", out + "/evolve"])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_commands_run_without_scipy(package_env, tmp_path):
    # any import of scipy fails in the subprocess; the commands must not need it
    config = tmp_path / "evolve.json"
    config.write_text(json.dumps({
        "A": 0.5, "G": 2.0, "mode": "nonlinear", "t_end": 0.05,
        "seed_shape": "3:1e-3", "n_r": 16, "n_theta": 32}))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, str(tmp_path), str(config)],
        env=package_env, check=True, capture_output=True, text=True)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "scipy": []}
    assert (tmp_path / "evolve" / "trajectory.csv").is_file()
