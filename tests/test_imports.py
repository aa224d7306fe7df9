"""The package runs on numpy alone; scipy serves the tests as the oracle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import xsdc


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded already
    src = os.path.dirname(os.path.dirname(xsdc.__file__))
    code = (
        "import sys, xsdc, xsdc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def _referenced_names(tree, skip):
    """Names a module's tree refers to as a Name, an Attribute or an import
    alias, outside the nodes in skip."""
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname} - {None})
    return names


def test_every_definition_is_exported_or_used():
    # a function or class only the tests call belongs in the tests
    trees = [
        ast.parse(path.read_text(), str(path))
        for path in sorted(Path(xsdc.__file__).parent.glob("*.py"))
    ]
    unused = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in xsdc.__all__:
                continue
            own_body = {id(inner) for inner in ast.walk(node)}
            if not any(
                node.name in _referenced_names(other, own_body if other is tree else set())
                for other in trees
            ):
                unused.append(node.name)
    assert unused == []
