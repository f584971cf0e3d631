"""Static checks on the package source with the standard library's `ast`:
no unused import, no private name that nothing references, and no
dataclass field that nothing reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "zmc").glob("*.py"))
# where a dataclass field may be read
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _references(tree):
    """(name, line) of every Name and attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {name for name, _ in _references(tree)}
    # names a module re-exports through __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    imported = [alias.asname or alias.name.split(".")[0]
              for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
              for alias in node.names]
    assert [name for name in imported if name not in used] == []


def _definitions(tree):
    """(node, name) of every module-level function, class and assigned
    name, and of every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def test_every_private_name_is_referenced():
    # a private name counts as used when some line of the package outside
    # its own definition names it
    trees = {path.name: _tree(path) for path in PACKAGE}
    refs = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((module, line))
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for node, name in _definitions(tree)
              if _private(name) and all(m == module and node.lineno <= line <= node.end_lineno
                                        for m, line in refs.get(name, ()))]
    assert unused == []


def test_every_dataclass_field_is_read():
    read = {node.attr for path in READERS for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in PACKAGE:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                unread += [f"{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                           and item.target.id not in read]
    assert unread == []
