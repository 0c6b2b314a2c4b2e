"""Every name a vasskit module imports is used in that module."""

import ast
import os

import pytest

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "vasskit")
MODULES = sorted(
    name for name in os.listdir(SRC_DIR) if name.endswith(".py") and name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC_DIR, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}, f"{module}: imported but never used: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each private top-level function, class or constant, with the
    statement that defines it; dunders are exempt."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found[name] = node
    return found


def _referenced_names(node: ast.AST) -> set[str]:
    """Every name a subtree mentions: plain names, attribute names and
    imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_definition_is_referenced():
    trees = {}
    for module in sorted(os.listdir(SRC_DIR)):
        if module.endswith(".py"):
            with open(os.path.join(SRC_DIR, module), encoding="utf-8") as fh:
                trees[module] = ast.parse(fh.read(), filename=module)
    # (statement, names it references) for every top-level statement
    statements = [
        (stmt, _referenced_names(stmt)) for tree in trees.values() for stmt in tree.body
    ]
    unreferenced = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree).items()
        if not any(name in names for stmt, names in statements if stmt is not definition)
    ]
    assert unreferenced == [], f"private definitions nothing references: {unreferenced}"


def test_certificates_imports_no_check_from_a_producer():
    """A certificate checker imports no check, cap or arithmetic from a
    module that produces certificates: only the domain types and answer
    records of ``core``, the errors and the instance reader."""
    with open(os.path.join(SRC_DIR, "certificates.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="certificates.py")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from . import m`` imports module m
            imported.update([node.module] if node.module else (a.name for a in node.names))
    assert imported <= {"core", "errors", "instances"}
