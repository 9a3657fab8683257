"""Every name a pdslab module imports is used in that module.

An import whose line carries `# noqa: F401` is exempt only where perfbench's
tracer wraps it: its (module, name) must be a site in `WRAPPED` of
perfbench/tracing.py (pipeline keeps four names, mix_datasets,
sample_dataset, pevi_solve and relabel, for the tracer that the sweep itself
no longer calls). Any other marked import is reported like an unused one.
`__init__.py` is skipped: its imports are the package's public exports.
Uses count in code and in annotations, quoted ones included.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pdslab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _traced_sites():
    """The (module, name) sites perfbench's tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {site for sites in tracing.WRAPPED.values() for site in sites}


def _imports(tree, lines, exempt):
    """(bound name, line) of each import, skipping those marked noqa: F401
    whose bound name is in exempt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" in lines[alias.lineno - 1] and name in exempt:
                    continue
                yield name, alias.lineno


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


def _unused(source, exempt=frozenset()):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imports(tree, source.splitlines(), exempt)
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    stem = module.removesuffix(".py")
    exempt = {name for site, name in _traced_sites() if site == stem}
    assert _unused((SRC / module).read_text(), exempt) == []


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from x import y  # noqa: F401\nfrom z import w\n"
              "from q import v  # noqa: F401\n"
              "def f(a: 'w') -> None:\n    return os.path.sep\n")
    assert _unused(source, exempt={"y"}) == [("json", 2), ("v", 6)]
