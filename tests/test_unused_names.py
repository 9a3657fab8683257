"""Every top-level function and class in pdslab has a caller or is documented.

A name passes when some other top-level statement of the package refers to
it, by an AST name or attribute, or when README.md names it. Docstrings and
comments are not references, and neither is an import: a name that
`__init__.py` only re-exports still needs a use. `EXEMPT` lists the names
kept without either, each with its reason.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pdslab"

EXEMPT = {
    "gaussian_min_coefficient": "what the two documented reds test; no estimator calls it",
    "bound_holds_rate": "the lab's experiments and run manifest will call it (ROADMAP 6, 8)",
    "uds_bias": "the lab's experiments will judge uds against it (ROADMAP item 6)",
}


def _referenced(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreferenced(sources, readme):
    """(module, name) of each top-level def or class in sources, a map of
    module name to source text, that no other top-level statement refers to
    and readme does not name."""
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, top.name))
                used |= {(module, top.name, name) for name in _referenced(top)}
            else:
                used |= {(module, None, name) for name in _referenced(top)}
    used_by_others = {}
    for module, owner, name in used:
        used_by_others.setdefault(name, set()).add((module, owner))
    return [(module, name) for module, name in defined
            if not used_by_others.get(name, set()) - {(module, name)}
            and not re.search(rf"\b{re.escape(name)}\b", readme)]


def test_every_name_is_used_or_documented():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = _unreferenced(sources, (ROOT / "README.md").read_text())
    assert sorted(name for _, name in found) == sorted(EXEMPT)


def test_guard_flags_an_unused_name():
    sources = {
        "a": ('"""Mentions dead() and Orphan in a docstring."""\n'
              "from b import dead, Orphan\n"
              "def dead():\n    return dead()\n"
              "def used():\n    return 1\n"
              "class Orphan:\n    pass\n"
              "def documented():\n    pass\n"),
        "b": "import a\nVALUE = a.used()\n",
    }
    found = _unreferenced(sources, "`documented` is in the README.")
    assert found == [("a", "dead"), ("a", "Orphan")]
