"""Every public top-level function and class of the package has a caller
outside the tests.

A definition counts as used when its name, matched on word boundaries,
appears in a Python file under ``src/``, ``scripts/`` or ``bench/`` other
than at its own definition.  ``__init__.py`` re-exports do not count, and
no definition is exempt: library code that only its own tests call is
deleted, not listed here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairorder"
CALLER_DIRS = ("src", "scripts", "bench")


def _sources():
    return {
        path: path.read_text(encoding="utf-8")
        for top in CALLER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    }


def _public_definitions(sources):
    for path, text in sources.items():
        if path.parent != PACKAGE:
            continue
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.name


def test_every_public_definition_has_a_caller_outside_tests():
    sources = _sources()
    unused = []
    for path, name in _public_definitions(sources):
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        references = sum(len(pattern.findall(text)) for text in sources.values())
        if references <= 1:  # the definition's own name
            unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, "referenced only by tests: " + ", ".join(unused)
