"""Columnar CSV: the one reader and writer behind every CSV file vcdfuel
reads or writes. Callers add only their own rules (allowed columns, unit
factors, integer columns)."""

from __future__ import annotations

import csv

import numpy as np

from .errors import ParseError


# rows held as Python objects at once, which bounds memory on long files
_BLOCK = 1024


def write_columns(path, columns: dict[str, np.ndarray], fmt: str) -> None:
    """Write equal-length columns under their names, CRLF line ends.

    Integer columns are written with ``"%d"``, float columns with the printf
    spec ``fmt`` (``"%r"`` round-trips float64 exactly). Every row is
    formatted by one ``%`` operation with the same row template.
    """
    row = ",".join("%d" if col.dtype.kind in "iu" else fmt for col in columns.values()) + "\r\n"
    n = len(next(iter(columns.values())))
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(columns) + "\r\n")
        for i in range(0, n, _BLOCK):
            block = zip(*[col[i:i + _BLOCK].tolist() for col in columns.values()])
            f.write("".join(map(row.__mod__, block)))


def read_columns(path) -> dict[str, np.ndarray]:
    """Columns of a CSV file as float64 arrays, keyed by lower-cased name.

    Blank rows and a leading byte-order mark are skipped. A file that is not
    UTF-8 CSV text, a missing or repeated column name, a ragged row, a cell
    that is not a finite number, or a file without data rows raises
    ParseError naming the file and, where there is one, the line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f)
            names = [name.strip().lower() for name in next(reader, [])]
            if not names or "" in names:
                raise ParseError(f"{path}:1: empty header or column name")
            if len(set(names)) != len(names):
                raise ParseError(f"{path}:1: repeated column in header {','.join(names)}")
            blocks, rows = [], []
            for lineno, row in enumerate(reader, start=2):
                if any(cell.strip() for cell in row):
                    if len(row) != len(names):
                        raise ParseError(f"{path}:{lineno}: expected {len(names)} columns, "
                                         f"got {len(row)}")
                    rows.append((lineno, row))
                if len(rows) == _BLOCK:
                    blocks.append(_floats(path, names, rows))
                    rows = []
            blocks.append(_floats(path, names, rows))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None
    data = np.concatenate(blocks, axis=1)
    if not data.shape[1]:
        raise ParseError(f"{path}: no data rows")
    return dict(zip(names, data))


def _floats(path, names, rows) -> np.ndarray:
    """(lineno, cells) rows as a (column, row) float array."""
    try:
        data = np.array([cells for _, cells in rows], dtype=float).reshape(len(rows), len(names))
    except ValueError:
        for lineno, cells in rows:
            try:
                np.array(cells, dtype=float)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
        raise
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        lineno, cells = rows[i]
        raise ParseError(f"{path}:{lineno}: non-finite value {cells[j]!r} in column '{names[j]}'")
    return data.T
