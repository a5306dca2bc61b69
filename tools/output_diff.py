#!/usr/bin/env python3
"""Size of the differences between two output trees of ``output_digests.py``.

    python3 tools/output_diff.py A B

A and B are two ``--out`` directories written by ``tools/output_digests.py``,
say one of a change and one of its parent commit.  Every CSV file and
every ``summary.txt`` that either tree holds is compared, one line per CSV
column and per summary key (``wall_seconds`` left out):

    <file> <column or key> <size>

<size> is the largest |a - b| over the column's rows divided by the
largest |value| in the column, in either tree; ``0`` means the column is
the same text in both.  A value is the number a field starts with, and
the text after it must match: ``1.6 (bound 4.5)`` in a summary is 1.6.
Where a row that differs is not a number, its trailing text differs or
the difference is not finite, it reads ``differs``, and where the row
counts differ, ``rows differ``.  A file, column or key that only one tree
has reads ``only in A`` or ``only in B``.
"""

import argparse
import csv
import math
import sys
from pathlib import Path


def outputs(root: Path) -> set[str]:
    """Relative paths of the CSV files and summaries under ``root``."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and (p.suffix == ".csv" or p.name == "summary.txt")}


def columns(path: Path) -> dict[str, list[str]]:
    """The columns of a CSV file, or the keys of a summary, as text."""
    if path.name == "summary.txt":
        pairs = (line.partition(" = ") for line in path.read_text().splitlines() if line)
        return {key: [value] for key, _, value in pairs if key != "wall_seconds"}
    with path.open(newline="") as f:
        header, *rows = list(csv.reader(f))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def split(text: str) -> tuple[float, str]:
    """A value's leading number and the text after it, which must match
    for the numbers to be compared (``1.6 (bound 4.5)`` gives 1.6)."""
    head, _, rest = text.partition(" ")
    return float(head), rest


def size(a: list[str], b: list[str]) -> str:
    """Largest |a - b| over the rows divided by the largest |value|."""
    if a == b:
        return "0"
    if len(a) != len(b):
        return "rows differ"
    try:
        pairs = [(split(x), split(y)) for x, y in zip(a, b) if x != y]
    except ValueError:
        return "differs"
    if any(rest_x != rest_y for (_, rest_x), (_, rest_y) in pairs):
        return "differs"
    diff = max(abs(x - y) for (x, _), (y, _) in pairs)
    scale = 0.0
    for text in a + b:
        try:
            scale = max(scale, abs(split(text)[0]))
        except ValueError:
            pass
    if not (math.isfinite(diff) and math.isfinite(scale)) or scale == 0.0:
        return "differs"
    return f"{diff / scale:.3g}"


def compare(a: Path, b: Path) -> list[str]:
    """The printed lines for the trees ``a`` and ``b``."""
    in_a, in_b = outputs(a), outputs(b)
    lines = []
    for name in sorted(in_a | in_b):
        if name not in in_b:
            lines.append(f"{name} only in A")
            continue
        if name not in in_a:
            lines.append(f"{name} only in B")
            continue
        cols_a, cols_b = columns(a / name), columns(b / name)
        for column in [*cols_a, *(c for c in cols_b if c not in cols_a)]:
            if column not in cols_b:
                lines.append(f"{name} {column} only in A")
            elif column not in cols_a:
                lines.append(f"{name} {column} only in B")
            else:
                lines.append(f"{name} {column} {size(cols_a[column], cols_b[column])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first --out directory")
    parser.add_argument("b", type=Path, help="second --out directory")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    print("\n".join(compare(args.a, args.b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
