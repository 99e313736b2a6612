"""Count the code lines of the package, per module and in total.

A code line is a physical line that holds a token of code: comments,
blank lines and docstrings (the string that opens a module, class or
function body) do not count, and a statement over several lines counts
each of them. Standard library only (``tokenize`` and ``ast``).

    python3 tools/code_lines.py [DIR]
    python3 tools/code_lines.py --ref REF [DIR]

prints one ``module lines`` line per ``*.py`` file of DIR (default
``src/uavplan``) and then ``total lines``. With ``--ref REF`` it exports
REF's ``src/`` (``export_src`` of ``tools/same_outputs.py``) into a
temporary directory and prints one ``module REF tree delta`` line per
module of REF's ``src/uavplan`` or DIR, the delta being DIR's count less
REF's (a module that one side lacks counts 0 there), and then ``total
REF tree delta``; it exits 2 when REF cannot be exported. A DIR that is
not a directory exits 2 with the usage message, with or without
``--ref``.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python module ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _counts(root: Path) -> dict[str, int]:
    """The code lines of each ``*.py`` file of ``root``, by module name."""
    return {path.stem: code_lines(path.read_text())
            for path in sorted(root.glob("*.py"))}


def _ref_counts(ref: str) -> dict[str, int] | None:
    """``_counts`` of REF's ``src/uavplan``; None, with the reason on
    stderr, when REF cannot be exported."""
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    with tempfile.TemporaryDirectory() as tmp:
        src = same_outputs.export_src(ref, Path(tmp))
        return None if src is None else _counts(src / "uavplan")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="code_lines.py")
    parser.add_argument("dir", nargs="?", default=ROOT / "src" / "uavplan",
                        type=Path)
    parser.add_argument("--ref")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has printed its message
        return e.code
    if not args.dir.is_dir():
        parser.print_usage(sys.stderr)
        return 2
    tree = _counts(args.dir)
    if args.ref is None:
        for name, n in tree.items():
            print(f"{name} {n}")
        print(f"total {sum(tree.values())}")
        return 0
    ref = _ref_counts(args.ref)
    if ref is None:
        return 2
    lines = [(name, ref.get(name, 0), tree.get(name, 0))
             for name in sorted(ref.keys() | tree.keys())]
    lines.append(("total", sum(ref.values()), sum(tree.values())))
    for name, before, after in lines:
        print(f"{name} {before} {after} {after - before}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
