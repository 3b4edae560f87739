"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import structcode

PACKAGE = Path(structcode.__file__).resolve().parent


def unused_imports(source):
    """Top-level imported names that the rest of the module never mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_detected():
    src = "import os\nfrom x import a, b as c\nfrom __future__ import annotations\nc()\n"
    assert unused_imports(src) == [(1, "os"), (2, "a")]


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
