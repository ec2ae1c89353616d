"""Every package module imports at module level and uses each name it
imports, the package reads every module-level private name it defines, and
the package or the benchmark reads every field its classes declare.

The repository has no linter, so this catches the imports and the private
helpers or constants a deletion leaves behind, an import hidden in a
function body, and outputs that only the tests read. `__init__.py` is
skipped by the unused-import check: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "matweight"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


def unread_fields(sources):
    """Class.field for every annotated field of a class in the sources whose
    name no attribute read in them takes, leaving out the reads inside the
    class's own dunder methods. A read counts by name, whatever its object."""
    fields, reads = [], set()

    def visit(node, owner):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            dunder = (isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
                      and child.name.startswith("__") and child.name.endswith("__"))
            visit(child, node.name if dunder else owner)

    for tree in map(ast.parse, sources):
        fields += [(c.name, n.target.id) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for n in c.body if isinstance(n, ast.AnnAssign)
                   and isinstance(n.target, ast.Name)]
        visit(tree, None)
    return sorted(f"{c}.{f}" for c, f in fields if not any(a == f and o != c for a, o in reads))


def test_checker_flags_unread_fields():
    a = ("class R:\n    value: float\n    index: int\n    level: int\n"
         "    def __getitem__(self, k):\n        return R(self.value[k], self.index[k], 0)\n"
         "    def scaled(self, c):\n        return R(c * self.level, 0, 0)\n")
    b = "def f(r):\n    return r.value\n"
    assert unread_fields([a, b]) == ["R.index"]


# fields that only the tests read, each with the reason it stays
TEST_ONLY_FIELDS = {
    "NormResult.argmax_level": "the level of the sup, checked against an atom's cube",
    "ApCharacteristic.witness": "the cube attaining [W]_Ap, checked to lie in the window",
    "ProbeRow.forward": "the integrability probe's table is a paper object",
    "ProbeRow.backward": "the integrability probe's table is a paper object",
    "ProbeTable.rows": "the integrability probe's table is a paper object",
    "ProbeTable.sup_form": "the integrability probe's table is a paper object",
    "ProbeTable.stable_r": "the integrability probe's table is a paper object",
}


def test_package_or_benchmark_reads_every_field():
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    unread = unread_fields([p.read_text() for p in paths])
    assert [f for f in unread if f not in TEST_ONLY_FIELDS] == []  # dead data: delete it
    assert [f for f in TEST_ONLY_FIELDS if f not in unread] == []  # read now: unlist it
