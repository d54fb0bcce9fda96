"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "plateau"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = 0\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == ["sys", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
