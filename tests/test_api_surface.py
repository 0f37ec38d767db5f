"""Every library name the acceptance gates and the benchmark workloads use
must exist, so a deletion that would break them fails here first.

Both files are read as syntax trees, not imported: the names are taken from
``from grasp.X import ...`` in the acceptance tests and from ``alias.attr``
chains in the benchmark workloads, where ``import grasp.X as alias``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _resolve(module: str, chain) -> bool:
    obj = importlib.import_module(module)
    for attr in chain:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _chain(node):
    """(root name, [attr, ...]) of a dotted name such as a.b.c, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) and attrs else None


def _tree(relpath: str) -> ast.Module:
    return ast.parse((ROOT / relpath).read_text())


def test_acceptance_imports_resolve():
    used = [
        (node.module, alias.name)
        for node in ast.walk(_tree("tests/test_acceptance.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "grasp"
        for alias in node.names
    ]
    assert len(used) > 10
    missing = [f"{m}.{name}" for m, name in used if not _resolve(m, [name])]
    assert not missing, missing


def test_workload_attributes_resolve():
    tree = _tree("perfbench/workloads.py")
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "grasp"
    }
    used = set()
    for node in ast.walk(tree):
        found = _chain(node)
        if found and found[0] in modules:
            used.add((found[0], tuple(found[1])))
    assert len(used) > 10
    missing = sorted(
        ".".join((modules[root],) + attrs)
        for root, attrs in used
        if not _resolve(modules[root], attrs)
    )
    assert not missing, missing
