"""Every package module imports at module level and uses each name it
imports, and the package reads every module-level private name it defines.

The repository has no linter, so this catches the imports and the private
helpers or constants a deletion leaves behind, and an import hidden in a
function body. `__init__.py` is skipped by the unused-import check: its
imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "matweight"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    # an attribute chain such as np.linalg.norm starts at the Name np
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_unused_imports():
    src = "import os\nimport numpy as np\nfrom math import inf, pi\nx = np.zeros(1) + pi\n"
    assert unused_imports(src) == ["inf", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def local_imports(source):
    """Line numbers of the import statements that are not module-level statements."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in top)


def test_checker_flags_local_imports():
    src = ("import os\n\ndef f():\n    import json\n    return json\n\n"
           "class C:\n    from math import pi\n")
    assert local_imports(src) == [4, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_at_module_level(path):
    assert local_imports(path.read_text()) == []


def private_definitions(tree):
    """Module-level names a module binds that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def unread_private_names(sources):
    """Private module-level names that no expression in any of the sources
    reads, bare or as an attribute such as module._name."""
    trees = [ast.parse(s) for s in sources]
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return sorted(set().union(*map(private_definitions, trees)) - read)


def test_checker_flags_unread_private_names():
    a = "_SLOT = None\n_used = 2\n__all__ = []\ndef _helper():\n    return _used\n"
    b = "from . import a\nx = a._other\ndef _other():\n    pass\n"
    assert unread_private_names([a, b]) == ["_SLOT", "_helper"]


def test_package_reads_every_private_name():
    assert unread_private_names([p.read_text() for p in sorted(SRC.glob("*.py"))]) == []
