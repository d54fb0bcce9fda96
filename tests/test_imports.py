"""Every name a package module imports is used in that module, and every
module-level private helper is used somewhere in the package."""

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


def orphaned_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` functions and classes no package module reads.

    A reference is any load of the bare name, an attribute of that name or
    an import of it, in any of the given modules.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
            ):
                defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_orphan_scan_flags_only_unreferenced_helpers():
    sources = {
        "a": (
            "def _used():\n    pass\n"
            "def _orphan():\n    pass\n"
            "class _Gone:\n    pass\n"
        ),
        "b": "from .a import _used\n_used()\ndef public():\n    pass\n",
    }
    assert orphaned_private_defs(sources) == ["a._orphan", "a._Gone"]


def test_package_has_no_orphaned_private_helpers():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphaned_private_defs(sources) == []
