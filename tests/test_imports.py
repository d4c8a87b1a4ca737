"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import dpmedreg

SOURCES = sorted(Path(dpmedreg.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads; a name
    listed in the module's ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "__all__ = ['field']\n"
        "x = np.zeros(math.floor(1.5))\n"
    )
    assert unused_imports(source) == ["dataclass (line 4)", "os (line 3)"]


def test_package_modules_have_no_unused_imports():
    assert SOURCES
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}
