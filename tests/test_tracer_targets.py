"""Every library name the benchmark tracer wraps exists.

`perfbench/spans.py` wraps methods by name through `cls.__dict__[meth]`
and layer functions as module attributes, so deleting or renaming one
of them would only show when a traced benchmark run crashes. This reads
the targets from the tracer's syntax tree, without importing perfbench,
and looks each one up in the library.
"""

import ast
import importlib
from pathlib import Path

from arrayabs.backend import AffineEqs, Octagon, Product

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
CLASSES = {c.__name__: c for c in (AffineEqs, Octagon, Product)}


def _tree() -> ast.Module:
    return ast.parse(SPANS.read_text())


def wrapped_methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, method) of every `_method` call, a loop over a
    module-level tuple such as AFFINE_METHODS expanded."""
    consts = {
        t.id: ast.literal_eval(n.value)
        for n in tree.body
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Tuple)
        for t in n.targets
    }
    loops = {
        n.target.id: consts[n.iter.id]
        for n in ast.walk(tree)
        if isinstance(n, ast.For) and isinstance(n.iter, ast.Name) and n.iter.id in consts
    }
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "_method":
            cls, meth = n.args[:2]
            names = [meth.value] if isinstance(meth, ast.Constant) else loops[meth.id]
            out += [(cls.id, m) for m in names]
    return out


def wrapped_functions(tree: ast.Module) -> list[tuple[str, str]]:
    """(layer module, function) of every tuple that starts with
    `layer.function`, a layer being a module the tracer imports from
    arrayabs: the entries of its table."""
    layers = {
        a.name for n in tree.body if isinstance(n, ast.ImportFrom) and n.module == "arrayabs" for a in n.names
    }
    return [
        (el.value.id, el.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Tuple) and n.elts
        for el in n.elts[:1]
        if isinstance(el, ast.Attribute) and isinstance(el.value, ast.Name) and el.value.id in layers
    ]


def test_every_wrapped_method_exists():
    methods = wrapped_methods(_tree())
    assert ("AffineEqs", "meet") in methods and ("Octagon", "close") in methods
    missing = [f"{c}.{m}" for c, m in methods if m not in CLASSES[c].__dict__]
    assert not missing, f"the tracer wraps methods that do not exist: {missing}"


def test_every_wrapped_function_exists():
    functions = wrapped_functions(_tree())
    assert ("lift", "check_target") in functions
    missing = [
        f"{mod}.{fn}" for mod, fn in functions if not hasattr(importlib.import_module(f"arrayabs.{mod}"), fn)
    ]
    assert not missing, f"the tracer wraps functions that do not exist: {missing}"
