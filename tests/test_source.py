"""Checks on the package's source itself."""

import ast
import importlib.util
import json
import subprocess
from collections import Counter
from pathlib import Path

import pytest

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


def _references(tree: ast.AST, attributes: bool = False) -> Counter:
    """How often each name is used in ``tree``: as a name, an attribute or
    an imported name, or with ``attributes`` as an attribute only."""
    kinds = ast.Attribute if attributes else (ast.Name, ast.Attribute,
                                              ast.alias)
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(tree) if isinstance(node, kinds))


def _unused(trees: dict[str, ast.Module], private: bool):
    """Each private (or else public) definition of the modules ``trees``
    that they reference nowhere outside the definition itself, as
    (module, qualified name, name). A function or class is referenced by
    name, attribute or import, a method by attribute only: a local
    variable of a method's name is no use of it."""
    names = sum(map(_references, trees.values()), Counter())
    attributes = sum((_references(tree, attributes=True)
                      for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            method = "." in qualified
            used = attributes if method else names
            if (name.startswith("_") == private
                    and used[name] == _references(node, method)[name]):
                unused.append((module, qualified, name))
    return unused


def _package(exclude: tuple[str, ...] = ()) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name not in exclude}


def test_every_private_definition_is_referenced():
    """Code that nothing reads is deleted: every private function, class
    and method of the package is referenced somewhere in the package
    outside its own definition."""
    trees = _package()
    assert any(name.startswith("_") for tree in trees.values()
               for _, name, _ in _definitions(tree))
    assert [f"{module}: {qualified}"
            for module, qualified, name in _unused(trees, private=True)] == []


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


def _readers(tree: ast.Module):
    """Each top-level ``*_from_dict`` function of ``tree`` but the checked
    reader, ``_record_from_dict``, itself."""
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.endswith("_from_dict")
            and node.name != "_record_from_dict"]


def _hand_readers(tree: ast.Module):
    """Each reader (``_readers``) of ``tree`` that calls no
    ``_record_from_dict`` or that calls ``int`` or ``float``."""
    for node in _readers(tree):
        calls = {call.func.id for call in ast.walk(node)
                 if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Name)}
        if "_record_from_dict" not in calls or calls & {"int", "float"}:
            yield node.name


def test_every_reader_is_the_checked_reader():
    """Every JSON file the package reads back is read by one checked
    reader: each ``*_from_dict`` function builds its result through
    ``_record_from_dict`` and casts nothing with ``int`` or ``float``, so
    that a mistyped value is refused naming its key, not cast."""
    trees = _package()
    readers = {node.name for tree in trees.values()
               for node in _readers(tree)}
    assert readers >= {"config_from_dict", "instance_from_dict",
                       "model_from_dict", "tour_from_dict"}
    assert [f"{module}: {name}" for module, tree in trees.items()
            for name in _hand_readers(tree)] == []


_READERS = """
def tour_from_dict(d):
    return Tour(order=tuple(int(i) for i in d["order"]),
                total_cost_m=float(d["total_cost_m"]))


def pool_from_dict(d):
    return [Hotspot(**h) for h in d["hotspots"]]


def model_from_dict(d):
    read = _record_from_dict(_ModelFile, SCHEMA, "world model", d)
    return _build(read, float(read.mean_leg_time_s))


def config_from_dict(d):
    return _record_from_dict(ExperimentConfig, SCHEMA, "config", d)


def _record_from_dict(cls, schema, what, d):
    return _from_json(cls, d, what)


def tour_to_dict(t):
    return {"order": [int(i) for i in t.order]}
"""


def test_a_hand_written_reader_is_found():
    """A reader that casts, one that skips the checked reader and one
    that casts what it read are found; a reader through the checked
    reader alone, and a function that is no reader, are not."""
    assert list(_hand_readers(ast.parse(_READERS))) == [
        "tour_from_dict", "pool_from_dict", "model_from_dict"]


# Read from outside the package: the acceptance tests (C1-C9) import names
# from it and read attributes of what it returns, and the benchmark patches
# one method to count calls and calls another in its own tests.
_ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
_BENCHMARK = {"Instance.hotspot", "GaussianBelief.zero"}


def test_every_public_definition_is_used():
    """Code that only tests read lives in the tests: every public function,
    class and method of the package is referenced in the package outside
    its own definition (``__init__``'s re-exports do not count), imported
    (a method: read as an attribute) by the acceptance tests, or used by
    the benchmark."""
    trees = _package(exclude=("__init__.py",))
    acceptance = ast.parse(_ACCEPTANCE.read_text())
    imported = {alias.name for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("uavplan")
                for alias in node.names}
    read = set(_references(acceptance, attributes=True))
    assert any(not name.startswith("_") for tree in trees.values()
               for _, name, _ in _definitions(tree))
    assert [f"{module}: {qualified}"
            for module, qualified, name in _unused(trees, private=False)
            if name not in (read if "." in qualified else imported)
            and qualified not in _BENCHMARK] == []


_SHADOWED = """
class Belief:
    def zero(self):
        return 0


def total(values):
    zero = Belief()
    return sum(values, zero{call})


total([])
"""


@pytest.mark.parametrize("call, unused", [
    ("", [("m.py", "Belief.zero", "zero")]),
    (".zero()", [])], ids=["local-of-its-name", "attribute"])
def test_a_method_is_used_only_through_an_attribute(call, unused):
    """A local variable that shares a method's name is no use of the
    method; reading the method as an attribute is."""
    tree = ast.parse(_SHADOWED.format(call=call))
    assert _unused({"m.py": tree}, private=False) == unused


_SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os


def f(a,
      b):
    """A function docstring."""
    x = (a +   # a trailing comment
         b)
    return os.sep * x
'''


def _tool(name: str):
    """The module tools/{name}.py."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_lines_of_code_only(tmp_path, capsys):
    """tools/code_lines.py leaves out docstrings, comments and blank lines,
    and counts each line of a statement over several lines."""
    code_lines = _tool("code_lines")
    assert code_lines.code_lines(_SAMPLE) == 6
    (tmp_path / "b.py").write_text(_SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 6\ntotal 7\n"


def test_compare_outputs_names_every_difference(tmp_path, capsys):
    """tools/compare_outputs.py compares two output directories by sha256,
    subdirectories included and timings.csv left out: it names each
    missing, extra and differing file and exits 1, or counts the equal
    files and exits 0; a path that is not a directory exits 2."""
    compare = _tool("compare_outputs")
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "tours").mkdir(parents=True)
        (root / "metrics.csv").write_text("x\n1\n")
        (root / "tours" / "s005k000_ain.json").write_text("{}")
        (root / "timings.csv").write_text(f"{root.name}\n")
    assert compare.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "2 files equal\n"
    (a / "summary.csv").write_text("s")
    (b / "tours" / "s005k000_mql.json").write_text("{}")
    (b / "metrics.csv").write_text("x\n2\n")
    assert compare.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "differs metrics.csv\nmissing summary.csv\n"
        "extra tours/s005k000_mql.json\n3 files differ\n")
    assert compare.main([str(a), str(a / "metrics.csv")]) == 2


def test_same_outputs_compares_a_commit_with_the_tree(tmp_path, capsys,
                                                      monkeypatch):
    """tools/same_outputs.py runs each config at workers 1 and 2 on HEAD's
    src/ and the working tree's, then the working tree's over HEAD's
    workers 1 directory, prints one line per pair and per rerun, and
    exits 0 when every pair holds the same files and the rerun exits 0
    (the working tree's outputs are HEAD's while the change keeps every
    byte); a rerun that exits non-zero counts as a difference, and a
    commit it cannot export exits 2."""
    root = Path(__file__).parent.parent
    if subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    same = _tool("same_outputs")
    tiny = {"m_training": 20, "test_sizes": [5], "seeds_per_size": 1,
            "ql": {"episodes": 50}}
    assert same.same_outputs("HEAD", {"tiny": tiny}) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "tiny workers 1", "tiny workers 2", "tiny rerun over ref"]
    assert all(line.endswith(" files equal") for line in out[:2]), out
    assert out[2] == "tiny rerun over ref: exit 0"
    # a rerun whose config holds another pool seed: REF's pools.json differs
    real, runs = same._pipeline, []

    def pipeline(src, config, out, workers):
        runs.append(out.name)
        if runs.count("tiny-w1-ref") == 2:
            config.write_text(json.dumps({**tiny, "pool_seed": 1}))
        return real(src, config, out, workers)

    monkeypatch.setattr(same, "_pipeline", pipeline)
    assert same.same_outputs("HEAD", {"tiny": tiny}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "tiny rerun over ref: run failed", out
    assert out[3].startswith("  tree exit 2: configuration error: "), out
    assert same.same_outputs("no-such-commit", {"tiny": tiny}) == 2
    assert "cannot export no-such-commit" in capsys.readouterr().err


def test_setup_layers_times_a_commit_against_the_tree(capsys):
    """tools/setup_layers.py times each set-up layer on HEAD's src/ and the
    working tree's, one line per layer with a median and quartiles per
    side, and exits 0 when every layer's output is the same on both
    sides (the working tree's outputs are HEAD's while the change keeps
    every byte); a commit it cannot export exits 2."""
    root = Path(__file__).parent.parent
    if subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    layers = _tool("setup_layers")
    assert layers.setup_layers("HEAD", 1) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[1:]] == list(layers.LAYERS)
    assert not any("differ" in line for line in out)
    assert layers.setup_layers("no-such-commit", 1) == 2
    assert "cannot export no-such-commit" in capsys.readouterr().err
    assert layers.main(["HEAD", "--rounds", "0"]) == 2
