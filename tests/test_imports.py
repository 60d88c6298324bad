"""Import hygiene: the command line's import stays light, and every top-level
import and definition in the package is used, so a deletion leaves none behind."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oneguard"


def test_cli_import_generates_no_dataclass_code():
    # A fresh interpreter: dataclasses (and the inspect it imports) would
    # cost the command line's cold start a third of its import time.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oneguard.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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


def defined_names(tree):
    """The top-level functions, classes and assigned names of a module, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return names


def referenced_names(tree):
    """Every name a module reads: bare names, attribute names and names imported from another module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced(sources):
    """(module, line, name) of each top-level definition that no module of ``sources`` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(referenced_names, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in defined_names(tree).items()
        if name not in used and name not in ("__all__", "__version__")
    )


def test_detector_sees_an_unreferenced_definition():
    sources = {
        "a.py": "X = 1\ndef f(): return g()\ndef g(): pass\nclass C: pass\n__version__ = '1'\n",
        "b.py": "from .a import C\nimport a\nY: int = a.X\n",
    }
    assert unreferenced(sources) == [("a.py", 2, "f"), ("b.py", 3, "Y")]


def test_every_top_level_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced(sources) == []


def unread_methods(package, readers):
    """(module, line, "Class.method") of each method of ``package`` that no module of ``readers`` reads as an attribute.

    A method is a function defined in a class body; dunders are left out,
    as the language calls them by protocol. An attribute that is only
    assigned or deleted is not read.
    """
    read = {
        node.attr
        for source in readers.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (module, fn.lineno, f"{cls.name}.{fn.name}")
        for module, source in package.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in read
    )


def test_detector_sees_an_unread_method():
    package = {
        "a.py": "class C:\n    def used(self): pass\n    def unused(self): pass\n"
        "    def __len__(self): return 0\n    @property\n    def p(self): return 1\n",
    }
    readers = dict(package, **{"t.py": "C().used()\nc.p\nc.unused = 1\n"})
    assert unread_methods(package, readers) == [("a.py", 3, "C.unused")]


def test_every_method_is_read():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    tests = {f"tests/{p.name}": p.read_text(encoding="utf-8") for p in Path(__file__).parent.glob("*.py")}
    assert unread_methods(package, dict(package, **tests)) == []
