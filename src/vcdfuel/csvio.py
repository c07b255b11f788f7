"""Columnar CSV: the one reader and writer behind every CSV file vcdfuel
reads or writes. Callers add only their own rules (allowed columns, unit
factors, integer columns)."""

from __future__ import annotations

import contextlib
import contextvars
import csv
import marshal
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np

from .errors import ParseError
from .rows import BLOCK, format_rows

HELPER = [sys.executable, "-I", "-S", os.path.join(os.path.dirname(__file__), "rows.py")]
_pending = contextvars.ContextVar("pending", default=None)  # in background(): path -> helper


def write_columns(path, columns: dict[str, np.ndarray], fmt: str) -> None:
    """Write equal-length columns under their names, CRLF line ends.

    Integer columns are written with ``"%d"``, float columns with the printf
    spec ``fmt`` (``"%r"`` round-trips float64 exactly). Every row is
    formatted by one ``%`` operation with the same row template.
    """
    row = ",".join("%d" if col.dtype.kind in "iu" else fmt for col in columns.values()) + "\r\n"
    cols = [np.ascontiguousarray(col, col.dtype.newbyteorder("=")) for col in columns.values()]
    _settle(pending := _pending.get(), path)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(columns) + "\r\n")
        if pending is None:
            return format_rows(f.write, row, cols)
        f.flush()
        with tempfile.TemporaryFile() as job:
            job.writelines([marshal.dumps((row, [(c.dtype.char, c.nbytes) for c in cols])), *cols])
            job.seek(0)
            pending[path] = subprocess.Popen(HELPER, stdin=job, stdout=f, stderr=subprocess.PIPE)


@contextlib.contextmanager
def background():
    """Write CSV rows in helper processes; on leaving, wait for all (OSError names a failed one)."""
    token = _pending.set(pending := {})
    try:
        yield
    finally:
        _pending.reset(token)
        _settle(pending)


def _settle(pending: dict | None, path=None) -> None:
    """Wait for the helpers in ``pending`` writing ``path`` (all if None) and for all but the
    newest seven, so that at most eight are alive at once; OSError if one failed."""
    paths = list(pending or ())
    procs = {other: pending.pop(other) for i, other in enumerate(paths) if i < len(paths) - 7
             or path is None or os.path.exists(path) and os.path.samefile(other, path)}
    errs = {other: proc.communicate()[1].decode(errors="replace") for other, proc in procs.items()}
    for other, proc in procs.items():
        if proc.returncode:
            why = errs[other].strip().rpartition("\n")[2] or f"exit status {proc.returncode}"
            raise OSError(f"{other}: formatting rows failed ({why})")


def read_columns(path) -> dict[str, np.ndarray]:
    """Columns of a CSV file as float64 arrays, keyed by lower-cased name.

    Blank rows and a leading byte-order mark are skipped. A file that is not
    UTF-8 CSV text, a missing or repeated column name, a ragged row, a cell
    that is not a finite number, or a file without data rows raises
    ParseError naming the file and, where there is one, the line.
    numpy parses the rows; on any trouble, the per-row path names what is wrong.
    """
    _settle(_pending.get(), path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            # numpy parses no quotes, so a cell over the csv field limit needs a longer line
            fast = max(map(len, f.buffer), default=0) <= csv.field_size_limit()
            f.seek(0)
            reader = csv.reader(f)
            names = [name.strip().lower() for name in next(reader, [])]
            if not names or "" in names:
                raise ParseError(f"{path}:1: empty header or column name")
            if len(set(names)) != len(names):
                raise ParseError(f"{path}:1: repeated column in header {','.join(names)}")
            with contextlib.suppress(Exception), warnings.catch_warnings():
                warnings.simplefilter("error")
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2).T if fast else ()
                if len(data) == len(names) and data.size and np.isfinite(data).all():
                    return dict(zip(names, np.ascontiguousarray(data)))
            f.seek(0)
            next(reader)
            blocks, rows = [], []
            for lineno, row in enumerate(reader, start=2):
                if any(cell.strip() for cell in row):
                    if len(row) != len(names):
                        raise ParseError(f"{path}:{lineno}: expected {len(names)} columns, "
                                         f"got {len(row)}")
                    rows.append((lineno, row))
                if len(rows) == BLOCK:
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
