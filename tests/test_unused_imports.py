"""Every name a pdslab module imports is used in that module.

An import whose line carries `# noqa: F401` is exempt (pipeline keeps two
names for perfbench's tracer that the sweep itself no longer calls).
`__init__.py` is skipped: its imports are the package's public exports.
Uses count in code and in annotations, quoted ones included.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pdslab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree, lines):
    """(bound name, line) of each import not marked noqa: F401."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                yield (alias.asname or alias.name).split(".")[0], alias.lineno


def _used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _used_names(ast.parse(note.value, mode="eval"))
    return names


def _unused(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imports(tree, source.splitlines())
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert _unused((SRC / module).read_text()) == []


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from x import y  # noqa: F401\nfrom z import w\n"
              "def f(a: 'w') -> None:\n    return os.path.sep\n")
    assert _unused(source) == [("json", 2)]
