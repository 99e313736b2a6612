"""Checks on the package's source itself."""

import ast
import importlib.util
import json
import os
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


def _package() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


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
    its own definition, imported (a method: read as an attribute) by the
    acceptance tests, or used by the benchmark."""
    trees = _package()
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


def test_package_root_holds_only_its_docstring():
    """The package root binds no names (tests, tools and the benchmark
    import from the modules), so no re-export can keep a name alive."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1


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


def _tree_commit(root: Path) -> str:
    """A commit of the working tree's tracked files, HEAD's when the tree
    holds no change: the ref a tool that compares a commit with the tree
    takes when the test means the tree against itself. ``git stash
    create`` makes it without touching the tree, the index or a ref."""
    if subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    ident = {f"GIT_{who}_{what}": value for who in ("AUTHOR", "COMMITTER")
             for what, value in (("NAME", "tests"),
                                 ("EMAIL", "tests@localhost"))}
    made = subprocess.run(["git", "-C", str(root), "stash", "create"],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, **ident})
    return made.stdout.strip() or "HEAD"


def test_code_lines_compares_a_commit_with_the_tree(capsys):
    """tools/code_lines.py --ref REF prints one ``module REF tree delta``
    line per module and then the totals; against the tree's own commit
    each delta is 0, and a commit it cannot export exits 2."""
    code_lines = _tool("code_lines")
    ref = _tree_commit(Path(__file__).parent.parent)
    assert code_lines.main(["--ref", ref]) == 0
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in out] == sorted(
        path.stem for path in SRC.glob("*.py")) + ["total"]
    assert all(line[1] == line[2] and line[3] == "0" for line in out), out
    assert int(out[-1][1]) == sum(int(line[1]) for line in out[:-1]) > 0
    assert code_lines.main(["--ref", "no-such-commit"]) == 2
    assert "cannot export no-such-commit" in capsys.readouterr().err


def test_same_outputs_compares_a_commit_with_the_tree(tmp_path, capsys,
                                                      monkeypatch):
    """tools/same_outputs.py runs each config at workers 1 and 2 on a
    commit's src/ and the working tree's, then ``plan`` from each on its
    own workers 1 world model and first test instance, then the working
    tree's pipeline over the commit's workers 1 directory; it prints one
    line per pair, per plan comparison and per rerun, and exits 0 when
    every pair holds the same files, both plan the same trace to a file
    and to stdout, and the rerun exits 0. The commit here is the tree's
    own, so its outputs are the tree's whatever the tree changes. A trace that differs and a rerun
    that exits non-zero each count as a difference, and a commit it
    cannot export exits 2. It runs four configs by default, the last the
    one whose oracle drops hotspots."""
    ref = _tree_commit(Path(__file__).parent.parent)
    same = _tool("same_outputs")
    assert list(same.default_configs()) == ["c6-c8", "plan-large",
                                            "train-large", "profit-drops"]
    tiny = {"m_training": 20, "test_sizes": [5], "seeds_per_size": 1,
            "ql": {"episodes": 50}}
    assert same.same_outputs(ref, {"tiny": tiny}) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "tiny workers 1", "tiny workers 2", "tiny plan",
        "tiny rerun over ref"]
    assert all(line.endswith(" files equal") for line in out[:2]), out
    assert out[2:] == ["tiny plan: same trace", "tiny rerun over ref: exit 0"]
    # the tree's plan on stdout with one more space: its trace differs
    real_run = same._run

    def run(src, *args):
        result = real_run(src, *args)
        if src != same.ROOT / "src" or "plan" not in args or "--trace" in args:
            return result
        return subprocess.CompletedProcess(result.args, result.returncode,
                                           b" " + result.stdout, result.stderr)

    monkeypatch.setattr(same, "_run", run)
    assert same.same_outputs(ref, {"tiny": tiny}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2:5] == ["tiny plan: trace differs", "  stdout differs",
                        "tiny rerun over ref: exit 0"], out
    monkeypatch.setattr(same, "_run", real_run)
    # a rerun whose config holds another pool seed: REF's pools.json differs
    real, runs = same._pipeline, []

    def pipeline(src, config, out, workers):
        runs.append(out.name)
        if runs.count("tiny-w1-ref") == 2:
            config.write_text(json.dumps({**tiny, "pool_seed": 1}))
        return real(src, config, out, workers)

    monkeypatch.setattr(same, "_pipeline", pipeline)
    assert same.same_outputs(ref, {"tiny": tiny}) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[3] == "tiny rerun over ref: run failed", out
    assert out[4].startswith("  tree exit 2: configuration error: "), out
    assert same.same_outputs("no-such-commit", {"tiny": tiny}) == 2
    assert "cannot export no-such-commit" in capsys.readouterr().err


def test_profit_drops_shape_drops_hotspots(tmp_path, monkeypatch):
    """tools/same_outputs.py's ``profit-drops`` shape keeps its purpose:
    run up to the oracle stage, some demonstration visits fewer hotspots
    than its training instance holds, so the oracle's selection pass drops
    a hotspot and re-runs 2-opt, and returns more than one block, while
    every demonstration keeps at least two hotspots (a word)."""
    from uavplan import oracle
    from uavplan.harness import config_from_dict, run_pipeline

    blocks, real = [], oracle._selection_pass

    def counted(*args):
        blocks.append(len(result := real(*args)))
        return result
    monkeypatch.setattr(oracle, "_selection_pass", counted)
    config = _tool("same_outputs").default_configs()["profit-drops"]
    cfg = config_from_dict({**config, "output_dir": str(tmp_path)})
    run_pipeline(cfg, "oracle")
    lengths = [len(json.loads(line)["order"]) for line in
               (tmp_path / "oracle_tours.jsonl").read_text().splitlines()[1:]]
    assert len(lengths) == cfg.m_training
    assert min(lengths) < cfg.train_instance_size and max(blocks) > 1, \
        "the profit-drops shape of tools/same_outputs.py no longer drops a hotspot"
    assert min(lengths) >= 2


def test_setup_layers_times_a_commit_against_the_tree(capsys):
    """tools/setup_layers.py times each set-up stage of the pipeline on
    a commit's src/ and the working tree's, on the shape of either benchmark
    workload, one line per stage with a median and quartiles per side,
    after a first line for the package's import (``imports``, the floor
    of the set-up's memory), then a line for reading the stage's world
    model back (``world_read``), each with the rounds in which the tree
    was faster, and a last line that every process ran pinned to
    one CPU, and exits 0 when every stage's file and the model
    read back are the same on both sides (here the commit is the tree's
    own, so they are), also over pools of ``--training-pool`` hotspots;
    a commit it cannot export, no rounds, an unknown workload or a pool
    smaller than the shape's largest test size exits 2."""
    ref = _tree_commit(Path(__file__).parent.parent)
    layers = _tool("setup_layers")
    for args in (["--workload", "train-large"], ["--workload", "plan-large"],
                 ["--workload", "plan-large", "--training-pool", "60"]):
        assert layers.main([ref, "--rounds", "1", *args]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out[1:-1]] == list(layers.LAYERS)
        # the rounds of the one run in which the tree was faster
        assert out[0].split()[-2:] == ["tree", "faster"]
        assert all(line.split()[9] in ("0/1", "1/1") for line in out[1:-1])
        assert layers.LAYERS[0] == "imports"
        assert layers.LAYERS[-2:] == ("ql", "world_read")
        # the import's peak is the floor that every stage's starts from
        floor, *stages = (float(line.split()[7]) for line in out[1:-2])
        assert 0 < floor <= min(stages)
        assert out[-1] == "each process ran on 1 CPU"
        assert not any("differ" in line for line in out)
    assert layers.setup_layers("no-such-commit", 1) == 2
    assert "cannot export no-such-commit" in capsys.readouterr().err
    assert layers.main([ref, "--rounds", "0"]) == 2
    assert layers.main([ref, "--workload", "no-such-workload"]) == 2
    config = layers._config("plan-large", Path("out"), 60)
    assert (config["training_pool_size"], config["testing_pool_size"]) == (
        60, 60)
    capsys.readouterr()
    assert layers.main([ref, "--workload", "plan-large",
                        "--training-pool", "49"]) == 2
    assert capsys.readouterr().err.startswith("usage: setup_layers.py")
