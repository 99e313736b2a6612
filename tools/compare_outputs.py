"""Compare two pipeline output directories file by file.

Every file under each directory, subdirectories included, is compared by
its sha256, except ``timings.csv`` (wall times, which differ from run to
run). Standard library only.

    python3 tools/compare_outputs.py A B

prints one line per file that only A holds (``missing``), that only B
holds (``extra``) or that differs (``differs``), by path relative to the
directory, then ``N files equal`` or ``N files differ``. Exits 0 when the
two hold the same files with the same bytes, 1 when anything differs and
2 when A or B is not a directory.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

SKIPPED = {"timings.csv"}


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root`` but the skipped ones, keyed by
    its path relative to ``root`` (with ``/`` separators)."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*")
            if path.is_file() and path.name not in SKIPPED}


def differences(da: dict[str, str], db: dict[str, str]) -> list[str]:
    """One line per file of ``digests`` A missing from B, extra in B or
    differing, sorted by path."""
    lines = []
    for name in sorted(da.keys() | db.keys()):
        if name not in db:
            lines.append(f"missing {name}")
        elif name not in da:
            lines.append(f"extra {name}")
        elif da[name] != db[name]:
            lines.append(f"differs {name}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_outputs.py A B (two directories)",
              file=sys.stderr)
        return 2
    da, db = (digests(Path(d)) for d in argv)
    lines = differences(da, db)
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} files differ")
        return 1
    print(f"{len(da)} files equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
