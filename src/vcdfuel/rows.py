"""CSV row formatting on the standard library alone, in the caller or in a helper running this
file: a marshalled ``(row, [(type code, bytes), ...])`` and each column's buffer in, rows out."""

import marshal
import sys

BLOCK = 1024  # rows held as Python objects at once, which bounds memory on long files


def format_rows(write, row: str, cols) -> None:
    """``write`` ``row % values`` for each row of ``cols`` (arrays or memoryviews), by block."""
    for i in range(0, len(cols[0]), BLOCK):
        write("".join(map(row.__mod__, zip(*[col[i:i + BLOCK].tolist() for col in cols]))))


if __name__ == "__main__":
    row, layout = marshal.load(sys.stdin.buffer)
    cols = [memoryview(sys.stdin.buffer.read(size)).cast(code) for code, size in layout]
    format_rows(lambda text: sys.stdout.buffer.write(text.encode()), row, cols)
