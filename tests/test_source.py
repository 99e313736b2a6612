"""Checks on the package's source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "uavplan"


def _private_definitions(tree: ast.Module):
    """Each private top-level function or class, and each private method
    of a top-level class, as (name, its definition node)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name.startswith("_")
                        and not item.name.endswith("__")):
                    yield item.name, item


def _references(tree: ast.AST) -> Counter:
    """How often each name is used in ``tree``: as a name, an attribute or
    an imported name."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_private_definition_is_referenced():
    """Code that nothing reads is deleted: every private function, class
    and method of the package is referenced somewhere in the package
    outside its own definition."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = sum(map(_references, trees.values()), Counter())
    defined = [(f"{module}: {name}", name, node)
               for module, tree in trees.items()
               for name, node in _private_definitions(tree)]
    assert defined
    assert [where for where, name, node in defined
            if used[name] == _references(node)[name]] == []


def _numpy_hypots(tree: ast.Module):
    """The line of every ``.hypot`` reached on anything but ``math``, such
    as ``np.hypot`` or ``numpy.hypot``, and of every import of ``hypot``
    from numpy."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "hypot"
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "math")):
            yield node.lineno
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "numpy"
                and any(a.name == "hypot" for a in node.names)):
            yield node.lineno


def test_distances_are_math_hypot():
    """Every distance keeps ``math.hypot``'s bits: numpy's hypot can
    differ from it in the last bit, which would change tours and every
    artifact made from them, so the package never calls it."""
    assert [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _numpy_hypots(ast.parse(path.read_text()))] == []
