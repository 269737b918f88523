"""Every top-level function and class of the package, public or private
(dunders aside), and every public method and property of its classes, has
a caller outside the tests,
and the test oracles use only the package's public names and share no
rule with it: ``tests/reference.py`` imports no package function.

A definition counts as used when code under ``src/``, ``scripts/`` or
``bench/`` refers to it: a name (``run_experiment``) or an attribute
(``harness.run_experiment``).  Text does not count, so neither docstrings
nor the bench tracer's table of names to wrap keep a definition alive, and
neither do imports: an import that nothing uses refers to nothing.  No
definition is exempt: library code that only its own tests call is
deleted, not listed here.

Every module under ``src/``, ``scripts/`` and ``tests/`` also references
every name it imports, except the package's ``__init__.py``, whose
imports are its re-exports.

Every SHA-256 and SHA-512 in the package goes through ``domain``'s one
binding: no module names ``hashlib.sha256``, ``hashlib.sha512`` or
``hashlib.new`` but the binding's own fallback.

The package is layered: the engine and what it stands on import no
adversary, attack, runner or CLI module, and the adversary imports no
runner or CLI module, so a strategy can call the engine without a cycle.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairorder"
CALLER_DIRS = ("src", "scripts", "bench")
IMPORTER_DIRS = ("src", "scripts", "tests")


def _trees(dirs=CALLER_DIRS):
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in dirs
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _references(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """(qualified name, name) of each public top-level function and class,
    and of each public method and property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def _private_definitions(tree):
    """(name, name) of each private top-level function and class but a
    dunder."""
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ):
            yield node.name, node.name


def _unused(definitions) -> list:
    trees = _trees()
    references = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{path.relative_to(ROOT)}: {qualified}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for qualified, name in definitions(tree)
        if not references[name]
    ]


def test_every_public_definition_has_a_caller_outside_tests():
    unused = _unused(_public_definitions)
    assert not unused, "referenced only by tests: " + ", ".join(unused)


def test_every_private_definition_has_a_caller_outside_tests():
    # a private helper that only tests call is library code kept for them
    unused = _unused(_private_definitions)
    assert not unused, "referenced only by tests: " + ", ".join(unused)


def test_reference_uses_only_public_names():
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fairorder")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    private += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_") and not node.attr.startswith("__")
    ]
    assert not private, "tests/reference.py uses private names: " + ", ".join(private)


def test_reference_imports_no_package_function():
    # a class, an exception or a constant only: a shared function would make
    # the engine-vs-reference tests compare the engine with itself
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    shared = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] == "fairorder"
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fairorder"):
            module = importlib.import_module(node.module)
            shared += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not isinstance(value := getattr(module, alias.name), type)
                and (callable(value) or inspect.ismodule(value))
            ]
    assert not shared, "tests/reference.py shares package code: " + ", ".join(shared)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_import_is_referenced():
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, tree in _trees(IMPORTER_DIRS).items()
        if path != PACKAGE / "__init__.py"
        for name in sorted(
            set(_imported_names(tree))
            - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        )
    ]
    assert not unused, "imported but never referenced: " + ", ".join(unused)


# hashlib's SHA-2 constructors, and ``new``, which makes them by name
HASHLIB_SHA2 = {"sha256", "sha512", "new"}


def _hashlib_sha2_sites(tree) -> list:
    """Where a module names one of ``HASHLIB_SHA2``: as an attribute of the
    hashlib module, under any alias, or imported from it."""
    aliases = {"hashlib"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "hashlib"
    }
    sites = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr in HASHLIB_SHA2
            and isinstance(node.value, ast.Name) and node.value.id in aliases
        ):
            sites.append(f"hashlib.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "hashlib":
            sites += [
                f"from hashlib import {alias.name}"
                for alias in node.names
                if alias.name in HASHLIB_SHA2
            ]
    return sites


def test_every_sha2_hash_goes_through_the_binding():
    found = [
        f"{path.relative_to(ROOT)}: {site}"
        for path, tree in _trees(("src",)).items()
        for site in _hashlib_sha2_sites(tree)
    ]
    # the one site: domain's fallback for a build without CPython's own
    assert found == [
        "src/fairorder/domain.py: from hashlib import sha256",
        "src/fairorder/domain.py: from hashlib import sha512",
    ]


def test_the_sha2_check_catches_what_it_should():
    tree = ast.parse(
        "import hashlib as h\nh.sha256(b'')\nhashlib.new('sha512')\n"
        "from hashlib import sha512, blake2b\nh.shake_256(b'')\n"
    )
    assert sorted(_hashlib_sha2_sites(tree)) == [
        "from hashlib import sha512", "hashlib.new", "hashlib.sha256"
    ]


# module -> the package modules it must not import
LAYERS = {
    **dict.fromkeys(
        ("domain", "netmodel", "sro", "analysis", "consensus"),
        {"adversary", "attacks", "harness", "cli"},
    ),
    "adversary": {"harness", "cli"},
}


def _package_imports(tree) -> set:
    """The package modules a module imports, by their names in the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from . import x`` and ``from fairorder import x`` import modules
            whole = node.module in (None, "fairorder")
            names = [alias.name for alias in node.names] if whole else [node.module]
        else:
            continue
        found.update(name.removeprefix("fairorder.").partition(".")[0] for name in names)
    return found


def test_no_layer_imports_one_above_it():
    crossings = [
        f"{module} imports {above}"
        for module, banned in LAYERS.items()
        for above in sorted(banned & _package_imports(
            ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        ))
    ]
    assert not crossings, "layering broken: " + ", ".join(crossings)
