"""Every top-level import in the package is used, so a deletion leaves none behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oneguard"


def exported(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used | exported(tree))


def test_detector_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c, d\nsys.exit(d)\n") == [(1, "os"), (3, "c")]
    assert unused_imports("from .m import X\n__all__ = ['X']\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
