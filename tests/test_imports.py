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
