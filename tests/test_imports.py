"""Import hygiene: every module of the package reads each name it imports.
The package's __init__.py is exempt, because its imports are its exports."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "esbmix"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement and never read, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_unread_names():
    source = "import os\nimport os.path\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert unused_imports(source) == ["pi"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
