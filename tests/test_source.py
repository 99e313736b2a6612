"""Checks on the package's source itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "uavplan"


def _definitions(tree: ast.Module):
    """Each top-level function or class, and each method of a top-level
    class but its dunder methods, as (qualified name, name, definition
    node)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


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
    defined = [(f"{module}: {qualified}", name, node)
               for module, tree in trees.items()
               for qualified, name, node in _definitions(tree)
               if name.startswith("_")]
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


# Read from outside the package: the acceptance tests (C1-C9) import names
# from it, and the benchmark's tracer patches this method to count calls.
_ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
_PATCHED = {"Instance.hotspot"}


def test_every_public_definition_is_used():
    """Code that only tests read lives in the tests: every public function,
    class and method of the package is referenced in the package outside
    its own definition (``__init__``'s re-exports do not count), imported
    by the acceptance tests, or a benchmark patch target."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    used = sum(map(_references, trees.values()), Counter())
    accepted = {alias.name for node in ast.walk(ast.parse(
                    _ACCEPTANCE.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("uavplan")
                for alias in node.names}
    defined = [(f"{module}: {qualified}", qualified, name, node)
               for module, tree in trees.items()
               for qualified, name, node in _definitions(tree)
               if not name.startswith("_")]
    assert defined
    assert [where for where, qualified, name, node in defined
            if used[name] == _references(node)[name]
            and name not in accepted and qualified not in _PATCHED] == []
