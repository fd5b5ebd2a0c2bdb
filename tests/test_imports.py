"""Every module under src/arrayabs uses each name it imports, and each
private helper it defines, and imports no other module's private name.

No linter is part of the toolchain, so this scans the syntax tree of
each module (package `__init__` files excluded: they import to
re-export) and compares the names its imports bind, and the `_private`
functions and classes it defines at module level, with the names the
rest of the module reads, string annotations included. The private
import check covers the `__init__` files too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arrayabs"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside `__future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_dead_private_helpers(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    dead = sorted(
        f"{node.name} (line {node.lineno})"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    )
    assert not dead, f"{path.name} defines private helpers it never uses: {', '.join(dead)}"


def test_no_private_imports():
    # a name with a leading underscore is its module's own business
    found = [
        f"{path.relative_to(SRC)}:{node.lineno} {a.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name.startswith("_")
    ]
    assert not found, f"modules import private names of other modules: {', '.join(found)}"
